package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// decoderOver opens a snapshot held in memory.
func decoderOver(data []byte) (*Decoder, error) {
	return NewDecoder(bytes.NewReader(data), int64(len(data)))
}

// shortSource is a ReaderAt that ends at stop, whatever size its reader
// was told: a file truncated after it was sized.
type shortSource struct {
	data []byte
	stop int64
}

func (s *shortSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= s.stop {
		return 0, io.EOF
	}
	n := copy(p, s.data[off:s.stop])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// roundTripSnapshot builds a two-section snapshot exercising every
// primitive type.
func roundTripSnapshot(t *testing.T) []byte {
	t.Helper()
	enc := NewEncoder()
	b := enc.Begin(SecOptions)
	b.U8(7)
	b.Bool(true)
	b.Bool(false)
	b.U32(0xdeadbeef)
	b.U64(1 << 62)
	b.I64(-42)
	b.F64(math.Pi)
	b.Str("practice name")
	b.U32s([]uint32{6, 5, math.MaxUint32})
	b.U64s([]uint64{9, 8, 7})
	b.Ints([]int{-5, 5})
	b.F64s([]float64{0.5, -0.25})
	enc.End()
	enc.Begin(SecLake)
	enc.End()
	var out bytes.Buffer
	if _, err := enc.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// roundTripHex is roundTripSnapshot as the parent of the Begin/End
// encoder wrote it: each payload built in a Buffer of its own and copied
// in by Encoder.Section.
const roundTripHex = "44334c534e41500002000000010000008400000000000000070100efbeadde0000000000000040d6ffffffffffffff182d4454fb2109400d0000007072616374696365206e616d65030000000600000005000000ffffffff0300000009000000000000000800000000000000070000000000000002000000fbffffffffffffff050000000000000002000000000000000000e03f000000000000d0bf020000000000000000000000ea12c17e"

// TestBeginEndWritesTheSectionLayout pins the bytes: a section laid down
// in place is the section that used to be copied in. roundTripHex is a
// version 2 snapshot; a version bump rewrites the header's version word,
// and so the trailer, and nothing else of the container.
func TestBeginEndWritesTheSectionLayout(t *testing.T) {
	want, err := hex.DecodeString(roundTripHex)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(want[len(Magic):], Version)
	want = (&Buffer{data: want[:len(want)-trailerLen]}).Sealed()
	if got := roundTripSnapshot(t); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes moved:\n got %x\nwant %x", got, want)
	}
}

// TestEncoderMisusePanics: a section inside a section, a repeated id, an
// End or a WriteTo at the wrong moment are writer bugs, refused loudly.
func TestEncoderMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(*Encoder){
		"Begin with a section open": func(e *Encoder) { e.Begin(SecOptions); e.Begin(SecLake) },
		"duplicate id":              func(e *Encoder) { e.Begin(SecOptions); e.End(); e.Begin(SecOptions) },
		"End with none open":        func(e *Encoder) { e.End() },
		"WriteTo with one open":     func(e *Encoder) { e.Begin(SecOptions); e.WriteTo(&bytes.Buffer{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			misuse(NewEncoder())
		}()
	}
}

// TestEncoderGrowReservesOnce: after Grow(n), n bytes of sections and the
// trailer fit in the reserved array.
func TestEncoderGrowReservesOnce(t *testing.T) {
	enc := NewEncoder()
	const payload = 1 << 16
	enc.Grow(12 + payload)
	reserved := enc.Cap()
	b := enc.Begin(SecAttrs)
	for i := 0; i < payload/8; i++ {
		b.U64(uint64(i))
	}
	enc.End()
	var out bytes.Buffer
	if _, err := enc.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if enc.Cap() != reserved || out.Len() > reserved {
		t.Fatalf("cap %d → %d for a %d-byte snapshot: the encoder regrew", reserved, enc.Cap(), out.Len())
	}
	if _, err := decoderOver(out.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	data := roundTripSnapshot(t)
	dec, err := decoderOver(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version() != Version {
		t.Fatalf("version %d, want %d", dec.Version(), Version)
	}
	r, err := dec.MustSection(SecOptions)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %x", v)
	}
	if v := r.U64(); v != 1<<62 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.Str(); v != "practice name" {
		t.Fatalf("Str = %q", v)
	}
	if v := r.U32s(nil); len(v) != 3 || v[0] != 6 || v[2] != math.MaxUint32 {
		t.Fatalf("U32s = %v", v)
	}
	if v := r.U64s(); len(v) != 3 || v[0] != 9 || v[2] != 7 {
		t.Fatalf("U64s = %v", v)
	}
	if v := r.Ints(); len(v) != 2 || v[0] != -5 || v[1] != 5 {
		t.Fatalf("Ints = %v", v)
	}
	if v := r.F64s(); len(v) != 2 || v[1] != -0.25 {
		t.Fatalf("F64s = %v", v)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
	if _, ok := dec.Section(SecLake); !ok {
		t.Fatal("empty section missing")
	}
	if _, ok := dec.Section(SecForests); ok {
		t.Fatal("absent section reported present")
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	data := roundTripSnapshot(t)
	data[0] ^= 0xff
	if _, err := decoderOver(data); !errors.Is(err, ErrMagic) {
		t.Fatalf("err = %v, want ErrMagic", err)
	}
}

func TestDecoderRejectsBitFlips(t *testing.T) {
	orig := roundTripSnapshot(t)
	for i := len(Magic); i < len(orig); i++ {
		data := append([]byte(nil), orig...)
		data[i] ^= 1
		_, err := decoderOver(data)
		if err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
		// Any flip outside the version field must be caught by the
		// checksum; a version-field flip may legitimately surface as
		// ErrVersion (its payload is covered by the CRC either way).
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit flip at %d: err = %v", i, err)
		}
	}
}

// TestDecoderRejectsTruncation: a snapshot cut short is refused, and so
// is a source that ends before the size it was opened with — ErrTruncated,
// never a read of bytes that are not there.
func TestDecoderRejectsTruncation(t *testing.T) {
	data := roundTripSnapshot(t)
	for n := 0; n < len(data); n++ {
		if _, err := decoderOver(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if _, err := NewDecoder(&shortSource{data, int64(n)}, int64(len(data))); !errors.Is(err, ErrTruncated) {
			t.Fatalf("source ending at %d of %d bytes: err = %v, want ErrTruncated", n, len(data), err)
		}
	}
}

// TestReaderPagesAcrossWindows decodes a section several windows long
// whose values straddle window boundaries, as every bulk and scalar read
// meets them, and checks the Readers of one Decoder hand the window on:
// a source that shrinks between the passes, or a Reader used after the
// next Section call, is an error, not a read of stale bytes.
func TestReaderPagesAcrossWindows(t *testing.T) {
	u32s := make([]uint32, window/4+3)
	for i := range u32s {
		u32s[i] = uint32(i) * 2654435761
	}
	f64s := make([]float64, window/8+1)
	for i := range f64s {
		f64s[i] = float64(i) / 3
	}
	name := strings.Repeat("practice ", window/8)
	enc := NewEncoder()
	b := enc.Begin(SecAttrs)
	b.U8(9) // knocks every later value off the window's alignment
	b.U32s(u32s)
	b.Str(name)
	b.F64s(f64s)
	b.F64s(f64s)
	for i := 0; i < window/8; i++ {
		b.U64(uint64(i))
	}
	b.Ints([]int{-3, 3})
	enc.End()
	enc.Begin(SecLake).U32(5)
	enc.End()
	var out bytes.Buffer
	if _, err := enc.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	src := &shortSource{data, int64(len(data))}
	dec, err := NewDecoder(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := dec.MustSection(SecAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if r.U8() != 9 || !slices.Equal(r.U32s(nil), u32s) || r.Str() != name {
		t.Fatalf("values before the slab did not survive paging: err %v", r.Err())
	}
	if got := r.AppendF64s(r.F64s()); !slices.Equal(got, append(f64s, f64s...)) {
		t.Fatalf("F64s + AppendF64s read %d values, err %v", len(got), r.Err())
	}
	r.Skip(8 * (window/8 - 1))
	if v := r.U64(); v != window/8-1 || !slices.Equal(r.Ints(), []int{-3, 3}) || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("tail read %d, err %v, %d bytes left", v, r.Err(), r.Remaining())
	}

	// Read into a buffer with room, the values land in its storage; into
	// one without, in a fresh slice, the buffer untouched.
	buf := make([]uint32, 1, len(u32s))
	buf[0] = 7
	r, _ = dec.Section(SecAttrs)
	if r.U8(); &r.U32s(buf)[0] != &buf[0] || !slices.Equal(buf[:len(u32s)], u32s) || r.Err() != nil {
		t.Fatalf("values read into a buffer with room: err %v", r.Err())
	}
	short := []uint32{7}
	r, _ = dec.Section(SecAttrs)
	if r.U8(); !slices.Equal(r.U32s(short[:0]), u32s) || short[0] != 7 || r.Err() != nil {
		t.Fatalf("values read into a buffer too short: err %v", r.Err())
	}

	// The same section read again from a source that has since shrunk.
	r, _ = dec.Section(SecAttrs)
	src.stop = window / 2 // inside the U32s
	r.U8()
	if r.U32s(nil); !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("source cut to %d bytes under a reader: err = %v, want ErrTruncated", src.stop, r.Err())
	}
	src.stop = int64(len(data))

	r, _ = dec.Section(SecAttrs)
	r2, _ := dec.Section(SecLake)
	if r.U8(); !errors.Is(r.Err(), errSuperseded) {
		t.Fatalf("reader used after the next Section: err = %v", r.Err())
	}
	if r2.U32() != 5 || r2.Err() != nil {
		t.Fatalf("latest reader: err %v", r2.Err())
	}
}

// TestDecoderRejectsUnknownVersion: the versions on either side of
// MinVersion…Version are ErrVersion; every one inside opens and reports
// itself.
func TestDecoderRejectsUnknownVersion(t *testing.T) {
	enc := NewEncoder()
	enc.Begin(SecOptions)
	enc.End()
	var out bytes.Buffer
	if _, err := enc.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	for _, v := range []uint32{MinVersion - 1, MinVersion, Version, Version + 1, 99} {
		// Rewrite the version field and recompute the trailer, so only
		// the version differs.
		binary.LittleEndian.PutUint32(data[8:], v)
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], castagnoli))
		dec, err := decoderOver(data)
		if v < MinVersion || v > Version {
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
			}
			continue
		}
		if err != nil || dec.Version() != v {
			t.Fatalf("version %d: err = %v, decoder reports %d", v, err, dec.Version())
		}
	}
}

func TestReaderErrorsAreSticky(t *testing.T) {
	r := &Reader{buf: []byte{1, 2}}
	_ = r.U64() // overruns
	if r.Err() == nil {
		t.Fatal("overrun not reported")
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("poisoned reader returned %d", v)
	}
	if v := r.Str(); v != "" {
		t.Fatalf("poisoned reader returned %q", v)
	}
}

func TestReaderRejectsOversizedCounts(t *testing.T) {
	// A count prefix claiming more elements than bytes remain must fail
	// without attempting the allocation.
	b := &Buffer{}
	b.U32(1 << 30)
	r := &Reader{buf: b.data}
	if v := r.U64s(); v != nil || r.Err() == nil {
		t.Fatalf("oversized count accepted: %v, err %v", v, r.Err())
	}
	r = &Reader{buf: b.data}
	if v := r.U32s(nil); v != nil || r.Err() == nil {
		t.Fatalf("oversized count accepted: %v, err %v", v, r.Err())
	}
}

func TestWriteToIsRepeatable(t *testing.T) {
	enc := NewEncoder()
	enc.Begin(SecOptions).Str("x")
	enc.End()
	var first, second bytes.Buffer
	if _, err := enc.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.WriteTo(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("WriteTo not repeatable")
	}
	if _, err := decoderOver(second.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestSealedRoundTrip covers the single-buffer envelope the shard
// gather body travels in: Sealed appends the trailer OpenSealed checks,
// and any damage — truncation, a flipped bit — is refused.
func TestSealedRoundTrip(t *testing.T) {
	var b Buffer
	b.U32(7)
	b.Str("partial")
	b.F64s([]float64{0.25, 0.5})
	sealed := b.Sealed()
	r, err := OpenSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if r.U32() != 7 || r.Str() != "partial" || len(r.F64s()) != 2 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("payload did not survive: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	if _, err := OpenSealed(sealed[:2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("2-byte body: err = %v, want ErrTruncated", err)
	}
	if _, err := OpenSealed(sealed[:len(sealed)-1]); !errors.Is(err, ErrChecksum) {
		t.Fatalf("truncated body: err = %v, want ErrChecksum", err)
	}
	flipped := append([]byte(nil), sealed...)
	flipped[5] ^= 0x10
	if _, err := OpenSealed(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped bit: err = %v, want ErrChecksum", err)
	}
}

// TestReaderCountBoundsAllocation: a count is refused unless that many
// elements of the stated size still fit in the payload.
func TestReaderCountBoundsAllocation(t *testing.T) {
	var b Buffer
	b.U32(3)
	b.U64(1)
	b.U64(2)
	b.U64(3)
	sealed := b.Sealed()
	r, _ := OpenSealed(sealed)
	if n := r.Count(8); n != 3 || r.Err() != nil {
		t.Fatalf("Count(8) = %d, err %v; want 3", n, r.Err())
	}
	r, _ = OpenSealed(sealed)
	if n := r.Count(9); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Count(9) = %d, err %v; want 0 and ErrTruncated (3×9 bytes do not remain)", n, r.Err())
	}
}

// TestSlabReads covers the reader's slab-decoding helpers: AppendF64s
// reads what F64s reads, onto the end of the caller's slice; Skip moves
// past bytes under the same bounds check as a read; and a copy of a
// Reader walks ahead without moving the original (how a decoder sizes a
// slab before filling it).
func TestSlabReads(t *testing.T) {
	var b Buffer
	b.Grow(64)
	b.F64s([]float64{0.25, 0.5})
	b.F64s(nil)
	b.F64s([]float64{-1})
	b.U32(9)
	r := &Reader{buf: b.data}
	scan := *r
	scan.Skip(4 + 16 + 4 + 4 + 8)
	if scan.U32() != 9 || scan.Err() != nil || r.Remaining() != len(b.data) {
		t.Fatalf("scan read past the vectors to err %v; original has %d of %d bytes left", scan.Err(), r.Remaining(), len(b.data))
	}
	slab := []float64{7}
	for i := 0; i < 3; i++ {
		slab = r.AppendF64s(slab)
	}
	if want := []float64{7, 0.25, 0.5, -1}; !slices.Equal(slab, want) || r.U32() != 9 || r.Err() != nil {
		t.Fatalf("AppendF64s built %v, err %v; want %v", slab, r.Err(), want)
	}
	r.Skip(1)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Skip past the end: err = %v, want ErrTruncated", r.Err())
	}
	// A count the payload cannot back appends nothing.
	short := &Reader{buf: []byte{2, 0, 0, 0, 1, 2, 3}}
	if got := short.AppendF64s(nil); len(got) != 0 || !errors.Is(short.Err(), ErrTruncated) {
		t.Fatalf("AppendF64s over a short payload: %v, err %v", got, short.Err())
	}
}
