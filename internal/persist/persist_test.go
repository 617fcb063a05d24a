package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

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
	b.Bytes([]byte{1, 2, 3})
	b.U32s([]uint32{6, 5, math.MaxUint32})
	b.U64s([]uint64{9, 8, 7})
	b.I32s([]int32{-1, 0, 1})
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
const roundTripHex = "44334c534e41500002000000010000009b00000000000000070100efbeadde0000000000000040d6ffffffffffffff182d4454fb2109400d0000007072616374696365206e616d6503000000010203030000000600000005000000ffffffff0300000009000000000000000800000000000000070000000000000003000000ffffffff000000000100000002000000fbffffffffffffff050000000000000002000000000000000000e03f000000000000d0bf020000000000000000000000ea12c17e"

// TestBeginEndWritesTheSectionLayout pins the bytes: a section laid down
// in place is the section that used to be copied in.
func TestBeginEndWritesTheSectionLayout(t *testing.T) {
	if got := hex.EncodeToString(roundTripSnapshot(t)); got != roundTripHex {
		t.Fatalf("snapshot bytes moved:\n got %s\nwant %s", got, roundTripHex)
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
	if _, err := NewDecoder(out.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	data := roundTripSnapshot(t)
	dec, err := NewDecoder(data)
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
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", v)
	}
	if v := r.U32s(); len(v) != 3 || v[0] != 6 || v[2] != math.MaxUint32 {
		t.Fatalf("U32s = %v", v)
	}
	if v := r.U64s(); len(v) != 3 || v[0] != 9 || v[2] != 7 {
		t.Fatalf("U64s = %v", v)
	}
	if v := r.I32s(); len(v) != 3 || v[0] != -1 || v[2] != 1 {
		t.Fatalf("I32s = %v", v)
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
	if _, err := NewDecoder(data); !errors.Is(err, ErrMagic) {
		t.Fatalf("err = %v, want ErrMagic", err)
	}
}

func TestDecoderRejectsBitFlips(t *testing.T) {
	orig := roundTripSnapshot(t)
	for i := len(Magic); i < len(orig); i++ {
		data := append([]byte(nil), orig...)
		data[i] ^= 1
		_, err := NewDecoder(data)
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

func TestDecoderRejectsTruncation(t *testing.T) {
	data := roundTripSnapshot(t)
	for n := 0; n < len(data); n++ {
		if _, err := NewDecoder(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
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
		dec, err := NewDecoder(data)
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
	r := &Reader{data: []byte{1, 2}}
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
	r := &Reader{data: b.data}
	if v := r.U64s(); v != nil || r.Err() == nil {
		t.Fatalf("oversized count accepted: %v, err %v", v, r.Err())
	}
	r = &Reader{data: b.data}
	if v := r.U32s(); v != nil || r.Err() == nil {
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
	if _, err := NewDecoder(second.Bytes()); err != nil {
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
	r := &Reader{data: b.data}
	scan := *r
	scan.Skip(4 + 16 + 4 + 4 + 8)
	if scan.U32() != 9 || scan.Err() != nil || r.Remaining() != b.Len() {
		t.Fatalf("scan read past the vectors to err %v; original has %d of %d bytes left", scan.Err(), r.Remaining(), b.Len())
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
	short := &Reader{data: []byte{2, 0, 0, 0, 1, 2, 3}}
	if got := short.AppendF64s(nil); len(got) != 0 || !errors.Is(short.Err(), ErrTruncated) {
		t.Fatalf("AppendF64s over a short payload: %v, err %v", got, short.Err())
	}
}
