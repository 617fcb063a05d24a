package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
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

// appendStr, appendU32s and appendInts lay a string or a slice down as
// the fixed-width layouts did, whose bytes roundTripHex pins: a uint32
// count, then the bytes, or the values at 32 and 64 bits; readStr reads
// the string back.
func appendStr(b *Buffer, s string) {
	b.U32(uint32(len(s)))
	for i := 0; i < len(s); i++ {
		b.U8(s[i])
	}
}

func readStr(r *Reader) string {
	s := make([]byte, r.Count(1))
	for i := range s {
		s[i] = r.U8()
	}
	return string(s)
}

func appendU32s(b *Buffer, vs []uint32) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.U32(v)
	}
}

func appendInts(b *Buffer, vs []int) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.I64(int64(v))
	}
}

// encoded is the snapshot sections writes through an Encoder, in memory.
func encoded(t testing.TB, sections func(*Encoder)) []byte {
	t.Helper()
	var out bytes.Buffer
	enc := NewEncoder(&out)
	sections(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// roundTripSnapshot builds a two-section snapshot exercising every
// primitive type.
func roundTripSnapshot(t *testing.T) []byte {
	t.Helper()
	return encoded(t, func(enc *Encoder) {
		enc.Section(SecOptions, func(b *Buffer) {
			b.U8(7)
			b.Bool(true)
			b.Bool(false)
			b.U32(0xdeadbeef)
			b.U64(1 << 62)
			b.I64(-42)
			b.F64(math.Pi)
			appendStr(b, "practice name")
			appendU32s(b, []uint32{6, 5, math.MaxUint32})
			appendInts(b, []int{9, 8, 7})
			appendInts(b, []int{-5, 5})
			b.F64s([]float64{0.5, -0.25})
		})
		enc.Section(SecLake, func(*Buffer) {})
	})
}

// roundTripHex is roundTripSnapshot as the version 2 encoder wrote it:
// each payload built in a Buffer of its own and copied in.
const roundTripHex = "44334c534e41500002000000010000008400000000000000070100efbeadde0000000000000040d6ffffffffffffff182d4454fb2109400d0000007072616374696365206e616d65030000000600000005000000ffffffff0300000009000000000000000800000000000000070000000000000002000000fbffffffffffffff050000000000000002000000000000000000e03f000000000000d0bf020000000000000000000000ea12c17e"

// TestSectionWritesTheSectionLayout pins the bytes: a section streamed
// through the window after a count pass is the section that used to be
// built whole and copied in. roundTripHex is a version 2 snapshot; a
// version bump rewrites the header's version word, and so the trailer,
// and nothing else of the container.
func TestSectionWritesTheSectionLayout(t *testing.T) {
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

// TestEncoderMisusePanics: a section inside a section, a repeated id, a
// Section after Close, a Close inside a section or a second Close, and an encode
// function that appends other bytes on its second run than on its first
// are writer bugs, refused loudly.
func TestEncoderMisusePanics(t *testing.T) {
	none := func(*Buffer) {}
	for name, misuse := range map[string]func(*Encoder){
		"Section inside a section": func(e *Encoder) {
			e.Section(SecOptions, func(*Buffer) { e.Section(SecLake, none) })
		},
		"duplicate id":           func(e *Encoder) { e.Section(SecOptions, none); e.Section(SecOptions, none) },
		"Section after Close":    func(e *Encoder) { e.Close(); e.Section(SecOptions, none) },
		"Close inside a section": func(e *Encoder) { e.Section(SecOptions, func(*Buffer) { e.Close() }) },
		"Close twice":            func(e *Encoder) { e.Close(); e.Close() },
		"a second run that differs": func(e *Encoder) {
			runs := 0
			e.Section(SecOptions, func(b *Buffer) {
				runs++
				for range runs {
					b.U32(7)
				}
			})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			misuse(NewEncoder(io.Discard))
		}()
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
	if v := readStr(r); v != "practice name" {
		t.Fatalf("Str = %q", v)
	}
	if n := r.Count(4); n != 3 || r.U32() != 6 || r.U32() != 5 || r.U32() != math.MaxUint32 {
		t.Fatal("counted uint32s round trip failed")
	}
	if n := r.Count(8); n != 3 || r.U64() != 9 || r.U64() != 8 || r.U64() != 7 {
		t.Fatal("counted uint64s round trip failed")
	}
	if n := r.Count(8); n != 2 || r.I64() != -5 || r.I64() != 5 {
		t.Fatal("counted int64s round trip failed")
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
	if _, ok := dec.Section(SecAttrs); ok {
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
	data := encoded(t, func(enc *Encoder) {
		enc.Section(SecAttrs, func(b *Buffer) {
			b.U8(9) // knocks every later value off the window's alignment
			b.VU32s(u32s)
			b.VStr(name)
			b.F64s(f64s)
			b.F64s(f64s)
			for i := 0; i < window/8; i++ {
				b.U64(uint64(i))
			}
			b.VU64s([]uint64{3, 5})
		})
		enc.Section(SecLake, func(b *Buffer) { b.U32(5) })
	})
	src := &shortSource{data, int64(len(data))}
	dec, err := NewDecoder(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := dec.MustSection(SecAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if r.U8() != 9 || !slices.Equal(r.VU32s(nil), u32s) || r.VStr() != name {
		t.Fatalf("values before the slab did not survive paging: err %v", r.Err())
	}
	if got := append(r.F64s(), r.F64s()...); !slices.Equal(got, append(f64s, f64s...)) {
		t.Fatalf("F64s read %d values, err %v", len(got), r.Err())
	}
	for i := 0; i < window/8-1; i++ {
		if v := r.U64(); v != uint64(i) {
			t.Fatalf("U64 %d read %d, err %v", i, v, r.Err())
		}
	}
	if v := r.U64(); v != window/8-1 || !slices.Equal(r.AppendVU64s(nil), []uint64{3, 5}) || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("tail read %d, err %v, %d bytes left", v, r.Err(), r.Remaining())
	}

	// Read into a buffer with room, the values land in its storage; into
	// one without, in a fresh slice, the buffer untouched.
	buf := make([]uint32, 1, len(u32s))
	buf[0] = 7
	r, _ = dec.Section(SecAttrs)
	if r.U8(); &r.VU32s(buf)[0] != &buf[0] || !slices.Equal(buf[:len(u32s)], u32s) || r.Err() != nil {
		t.Fatalf("values read into a buffer with room: err %v", r.Err())
	}
	short := []uint32{7}
	r, _ = dec.Section(SecAttrs)
	if r.U8(); !slices.Equal(r.VU32s(short[:0]), u32s) || short[0] != 7 || r.Err() != nil {
		t.Fatalf("values read into a buffer too short: err %v", r.Err())
	}

	// The same section read again from a source that has since shrunk.
	r, _ = dec.Section(SecAttrs)
	src.stop = window / 2 // inside the VU32s
	r.U8()
	if r.VU32s(nil); !errors.Is(r.Err(), ErrTruncated) {
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
	data := encoded(t, func(enc *Encoder) { enc.Section(SecOptions, func(*Buffer) {}) })
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
	if v := r.VStr(); v != "" {
		t.Fatalf("poisoned reader returned %q", v)
	}
}

func TestReaderRejectsOversizedCounts(t *testing.T) {
	// A count prefix claiming more elements than bytes remain must fail
	// without attempting the allocation.
	b := &Buffer{}
	b.U32(1 << 30)
	r := &Reader{buf: b.data}
	if v := r.F64s(); v != nil || r.Err() == nil {
		t.Fatalf("oversized count accepted: %v, err %v", v, r.Err())
	}
	var v Buffer
	v.Uvarint(1 << 30)
	r = &Reader{buf: v.data}
	if v := r.VU32s(nil); v != nil || r.Err() == nil {
		t.Fatalf("oversized count accepted: %v, err %v", v, r.Err())
	}
}

// cappedWriter records the size of every Write and fails every one
// after the first limit bytes.
type cappedWriter struct {
	out    bytes.Buffer
	writes []int
	limit  int
}

var errWriterFull = errors.New("writer full")

func (w *cappedWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	if w.out.Len()+len(p) > w.limit {
		return 0, errWriterFull
	}
	return w.out.Write(p)
}

// TestEncoderStreamsThroughOneWindow: an Encoder hands its writer at
// most a window at a time — a section several windows long, of values
// of every width, each shorter than the window — and what it writes is
// the standalone Buffer's payload under the section header, the same
// bytes every time; a write that fails stops the writes, and Close
// returns its error. (Values
// longer than the window, which grow it, round-trip in
// TestReaderPagesAcrossWindows.)
func TestEncoderStreamsThroughOneWindow(t *testing.T) {
	name := strings.Repeat("practice ", window/16)
	u32s := make([]uint32, window/8)
	for i := range u32s {
		u32s[i] = uint32(i) * 2654435761
	}
	payload := func(b *Buffer) {
		for i := range 3 * window / 8 {
			b.Uvarint(uint64(i) << (i % 60))
			b.U8(uint8(i))
		}
		for range 3 {
			b.VStr(name)
			b.VU32s(u32s)
		}
		b.F64s([]float64{1, 2, 3})
		b.VU64s([]uint64{4, 5})
	}
	var want Buffer
	payload(&want)
	w := &cappedWriter{limit: math.MaxInt}
	enc := NewEncoder(w)
	enc.Section(SecAttrs, payload)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if slices.Max(w.writes) > window {
		t.Fatalf("a write of %d bytes through a %d-byte window", slices.Max(w.writes), window)
	}
	dec, err := decoderOver(w.out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := w.out.Bytes()[headerLen+sectionOverhead : w.out.Len()-trailerLen]; !bytes.Equal(got, want.data) {
		t.Fatalf("the streamed section (%d bytes) is not the standalone payload (%d bytes)", len(got), len(want.data))
	}
	if size := dec.SectionSizes()[SecAttrs]; size != len(want.data) {
		t.Fatalf("header declares %d bytes for a %d-byte payload", size, len(want.data))
	}
	if again := encoded(t, func(enc *Encoder) { enc.Section(SecAttrs, payload) }); !bytes.Equal(again, w.out.Bytes()) {
		t.Fatal("a second Encoder over the same section wrote other bytes")
	}

	full := &cappedWriter{limit: window + window/2}
	enc = NewEncoder(full)
	enc.Section(SecAttrs, payload)
	if err := enc.Close(); !errors.Is(err, errWriterFull) {
		t.Fatalf("Close after a failed write: err = %v, want the writer's", err)
	}
	if len(full.writes) != 3 {
		t.Fatalf("%d writes, want 3: the header, one window and the write that failed", len(full.writes))
	}
}

// TestSealedRoundTrip covers the single-buffer envelope the shard
// gather body travels in: Sealed appends the trailer OpenSealed checks,
// and any damage — truncation, a flipped bit — is refused.
func TestSealedRoundTrip(t *testing.T) {
	var b Buffer
	b.U32(7)
	b.VStr("partial")
	b.F64s([]float64{0.25, 0.5})
	sealed := b.Sealed()
	r, err := OpenSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if r.U32() != 7 || r.VStr() != "partial" || len(r.F64s()) != 2 || r.Err() != nil || r.Remaining() != 0 {
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

// uvarintLen and varintLen are the bytes encoding/binary's varints take.
func uvarintLen(v uint64) int { return len(binary.AppendUvarint(nil, v)) }
func varintLen(v int64) int   { return len(binary.AppendVarint(nil, v)) }

// TestVarints: Uvarint and Varint round-trip every width from one byte
// to ten, including across the window's edge, in the bytes
// encoding/binary's codes take; the V-counted strings and slices round-trip; a
// code of eleven bytes or past 64 bits is ErrCorrupt, one cut short
// ErrTruncated, and a count the bytes left cannot hold is refused before
// it sizes anything.
func TestVarints(t *testing.T) {
	var us []uint64
	for s := 0; s < 64; s += 7 {
		us = append(us, 1<<s-1, 1<<s, 1<<s+1)
	}
	us = append(us, math.MaxUint64)
	is := []int64{0, -1, 1, -64, 63, -65, 64, math.MinInt64, math.MaxInt64}
	written := 0
	for written < window+100 { // the codes straddle the window's edge
		for _, u := range us {
			written += uvarintLen(u)
		}
		for _, v := range is {
			written += varintLen(v)
		}
	}
	data := encoded(t, func(enc *Encoder) {
		enc.Section(SecAttrs, func(b *Buffer) {
			for n := 0; n < written; {
				for _, u := range us {
					b.Uvarint(u)
					n += uvarintLen(u)
				}
				for _, v := range is {
					b.Varint(v)
					n += varintLen(v)
				}
			}
			b.VStr("practice")
			b.VU32s([]uint32{6, math.MaxUint32})
			b.VU64s([]uint64{9, math.MaxUint64})
		})
	})
	dec, err := decoderOver(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.SectionSizes()[SecAttrs], written+1+8+1+8+1+16; got != want {
		t.Fatalf("section of %d bytes, the lengths add up to %d", got, want)
	}
	r, _ := dec.Section(SecAttrs)
	for read := 0; read < written; {
		for _, u := range us {
			if got := r.Uvarint(); got != u {
				t.Fatalf("Uvarint %d read as %d, err %v", u, got, r.Err())
			}
			read += uvarintLen(u)
		}
		for _, v := range is {
			if got := r.Varint(); got != v {
				t.Fatalf("Varint %d read as %d, err %v", v, got, r.Err())
			}
			read += varintLen(v)
		}
	}
	if r.VStr() != "practice" || !slices.Equal(r.VU32s(nil), []uint32{6, math.MaxUint32}) ||
		!slices.Equal(r.AppendVU64s(nil), []uint64{9, math.MaxUint64}) || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("V-counted values did not survive: err %v, %d bytes left", r.Err(), r.Remaining())
	}

	for _, c := range []struct {
		what string
		code []byte
		want error
	}{
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, ErrCorrupt},
		{"past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, ErrCorrupt},
		{"cut short", []byte{0x80, 0x80}, ErrTruncated},
		{"empty", nil, ErrTruncated},
	} {
		var b Buffer
		for _, c := range c.code {
			b.U8(c)
		}
		r, _ := OpenSealed(b.Sealed())
		if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), c.want) {
			t.Errorf("%s: Uvarint %d, err %v; want %v", c.what, v, r.Err(), c.want)
		}
	}
	var c Buffer
	c.Uvarint(3)
	c.U64(1)
	c.U64(2)
	sealed := c.Sealed()
	r, _ = OpenSealed(sealed)
	if n := r.VCount(8); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("VCount(8) of 3 over 16 bytes = %d, err %v; want 0 and ErrTruncated", n, r.Err())
	}
	r, _ = OpenSealed(sealed)
	if n := r.VCount(0); n != 3 || r.Err() != nil {
		t.Fatalf("VCount(0) = %d, err %v; want 3 (every element takes a byte)", n, r.Err())
	}
}

// TestWriteFileReplacesWholeOrNothing: WriteFile puts what its write
// function wrote at the path, mode 0644, and leaves no temporary file;
// when the write function fails, or the directory is missing, it
// returns the error, removes its temporary file and leaves the path as
// it was. (A rename that cannot land is TestSaveFileReplacesWhole's
// case.)
func TestWriteFileReplacesWholeOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	noTemps := func() {
		t.Helper()
		if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(temps) > 0 {
			t.Fatalf("temporary files left behind: %v", temps)
		}
	}
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, writeString("new")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("read %q, err %v; want \"new\"", got, err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("stat: %v, err %v; want mode 0644", st.Mode(), err)
	}
	noTemps()

	failed := errors.New("encoder failed")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("err = %v, want the write function's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("a failed write left %q at the path", got)
	}
	noTemps()
	if err := WriteFile(filepath.Join(dir, "missing", "file"), writeString("x")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

// blockEnv makes the test binary, re-executed as a child, wait on its
// stdin until it is closed: a live process whose pid a test can name.
const blockEnv = "PERSIST_TEST_BLOCK"

// TestWriteFileRemovesOnlyDeadWritersTemps names temporary files of
// path after a live writer (a child process that is still running), a
// dead one (the same child after it exits), this process, and in forms
// WriteFile never writes. A save removes the dead writer's file only:
// while the child runs its file survives, as the temporary file of a
// concurrent save must, and once it has exited the next save takes it.
func TestWriteFileRemovesOnlyDeadWritersTemps(t *testing.T) {
	if os.Getenv(blockEnv) != "" {
		io.Copy(io.Discard, os.Stdin)
		return
	}
	child := exec.Command(os.Args[0], "-test.run=^TestWriteFileRemovesOnlyDeadWritersTemps$")
	child.Env = append(os.Environ(), blockEnv+"=1")
	stdin, err := child.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "lake.d3l")
	temp := func(pid int, n string) string { return path + "." + strconv.Itoa(pid) + "." + n + ".tmp" }
	pid := strconv.Itoa(child.Process.Pid)
	writer := temp(child.Process.Pid, "17")
	// Once the child exits, only writer is a dead writer's temporary
	// file of path: the rest are this process's, or named otherwise.
	kept := []string{temp(os.Getpid(), "23"), path + "." + pid + ".tmp", path + "." + pid + ".x.tmp",
		path + "." + pid + ".2.3.tmp", filepath.Join(dir, "other.d3l."+pid+".2.tmp")}
	for _, name := range append([]string{writer}, kept...) {
		if err := os.WriteFile(name, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exists := func(name string) bool { _, err := os.Stat(name); return err == nil }
	save := func() {
		t.Helper()
		if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "snapshot"); return err }); err != nil {
			t.Fatal(err)
		}
	}
	save()
	if !exists(writer) {
		t.Fatal("a save removed the temporary file of a writer that is still running")
	}
	stdin.Close()
	if err := child.Wait(); err != nil {
		t.Fatal(err)
	}
	save()
	if exists(writer) {
		t.Fatal("a save left the temporary file of a writer that has exited")
	}
	for _, name := range kept {
		if !exists(name) {
			t.Fatalf("a save removed %s, which no dead writer left", filepath.Base(name))
		}
	}
}
