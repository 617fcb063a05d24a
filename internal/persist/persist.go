// Package persist implements the binary snapshot container every
// engine component serializes into: a magic header, a format version,
// a sequence of length-prefixed sections, and a CRC32-C trailer.
//
// The container is deliberately dumb: it knows nothing about engines,
// forests or profiles. Components append primitive values (integers,
// strings, numeric slices) to the Buffer an Encoder hands out per section,
// and read them back through section Readers obtained from a Decoder.
// The Decoder verifies magic, version and checksum over the whole
// payload before handing out a single byte, so component decoders can
// assume structurally intact input and concentrate on semantic
// validation (id ranges, layout invariants).
//
// Compatibility policy: the trailer convention (little-endian CRC32-C
// over everything before the last four bytes) and the header layout
// (8-byte magic, 4-byte version) are frozen across versions. Any
// change to a section's internal layout, or a new mandatory section,
// bumps Version; decoders reject versions they do not know with
// ErrVersion rather than guessing. This build writes Version and reads
// MinVersion through Version: a component whose layout changed between
// them asks Decoder.Version which one it is reading.
//
// Version history:
//
//	1  MinHash signatures in SecAttrs are []uint64, one 61-bit minimum
//	   per slot.
//	2  MinHash signatures in SecAttrs are []uint32, the low half of each
//	   minimum (see package minhash). Nothing else differs.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Magic identifies a D3L snapshot stream; the trailing zero byte keeps
// it from being a printable prefix of any text format.
var Magic = [8]byte{'D', '3', 'L', 'S', 'N', 'A', 'P', 0}

// Version is the snapshot format version this build writes; MinVersion
// the oldest it still reads.
const (
	Version    uint32 = 2
	MinVersion uint32 = 1
)

// Section ids. Ids are stable across versions: a section keeps its id
// forever, new sections take fresh ids.
const (
	// SecOptions holds the engine Options (including the subject
	// classifier coefficients — hash families are derived from the
	// seed at load time and are not stored).
	SecOptions uint32 = 1
	// SecLake holds lake metadata: table names, column names and
	// types, and per-table liveness. Raw extents are not stored; a
	// loaded engine serves queries entirely from its profiles.
	SecLake uint32 = 2
	// SecAttrs holds the attribute profiles plus the per-table
	// attribute map, subject attributes, and the tombstone set.
	SecAttrs uint32 = 3
	// SecForests holds the four LSH forests I_N, I_V, I_F, I_E.
	SecForests uint32 = 4
	// SecJoinGraph holds the SA-join graph (optional: written by
	// d3l.Save, absent from bare core snapshots).
	SecJoinGraph uint32 = 5
)

// Decoding errors. Decoders wrap these, so test with errors.Is.
var (
	// ErrMagic marks input that is not a D3L snapshot at all.
	ErrMagic = errors.New("persist: bad magic, not a d3l snapshot")
	// ErrVersion marks a snapshot written by an unknown format version.
	ErrVersion = errors.New("persist: unsupported snapshot version")
	// ErrChecksum marks a snapshot whose CRC32-C trailer does not match
	// its payload (bit rot, truncation past the header, tampering).
	ErrChecksum = errors.New("persist: checksum mismatch")
	// ErrTruncated marks input too short to carry even the header and
	// trailer, or a section/value that declares more bytes than remain.
	ErrTruncated = errors.New("persist: truncated snapshot")
	// ErrCorrupt marks structural violations that survive the checksum
	// (impossible lengths, duplicate or missing sections) — in practice
	// only reachable from a buggy or adversarial writer.
	ErrCorrupt = errors.New("persist: corrupt snapshot")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Buffer accumulates one section's payload. The zero value is ready to
// use. All multi-byte values are little-endian; slices and strings are
// length-prefixed with a uint32 count.
type Buffer struct {
	data []byte
}

// Len reports the accumulated payload size.
func (b *Buffer) Len() int { return len(b.data) }

// Grow reserves room for n more bytes, so a writer that knows its
// payload's size (plus trailerLen, if it will call Sealed) allocates
// once instead of growing by doubling.
func (b *Buffer) Grow(n int) { b.data = slices.Grow(b.data, n) }

// U8 appends one byte.
func (b *Buffer) U8(v uint8) { b.data = append(b.data, v) }

// Bool appends a bool as one byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.U8(1)
	} else {
		b.U8(0)
	}
}

// U32 appends a uint32.
func (b *Buffer) U32(v uint32) { b.data = binary.LittleEndian.AppendUint32(b.data, v) }

// U64 appends a uint64.
func (b *Buffer) U64(v uint64) { b.data = binary.LittleEndian.AppendUint64(b.data, v) }

// I64 appends an int64 (two's complement).
func (b *Buffer) I64(v int64) { b.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (b *Buffer) F64(v float64) { b.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (b *Buffer) Str(s string) {
	b.U32(uint32(len(s)))
	b.data = append(b.data, s...)
}

// Bytes appends a length-prefixed byte slice.
func (b *Buffer) Bytes(p []byte) {
	b.U32(uint32(len(p)))
	b.data = append(b.data, p...)
}

// U32s appends a length-prefixed []uint32. MinHash signatures — most of
// a snapshot's bytes — go through here, so the payload grows once and
// the slots are appended through a local slice header rather than one
// b.data store (and GC write barrier) per slot.
func (b *Buffer) U32s(vs []uint32) {
	b.U32(uint32(len(vs)))
	data := slices.Grow(b.data, 4*len(vs))
	for _, v := range vs {
		data = binary.LittleEndian.AppendUint32(data, v)
	}
	b.data = data
}

// U64s appends a length-prefixed []uint64.
func (b *Buffer) U64s(vs []uint64) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.U64(v)
	}
}

// I32s appends a length-prefixed []int32.
func (b *Buffer) I32s(vs []int32) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.U32(uint32(v))
	}
}

// I64s appends a length-prefixed []int64.
func (b *Buffer) I64s(vs []int64) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.I64(v)
	}
}

// Ints appends a length-prefixed []int as 64-bit values.
func (b *Buffer) Ints(vs []int) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.I64(int64(v))
	}
}

// F64s appends a length-prefixed []float64, grown once and appended
// through a local slice header like U32s.
func (b *Buffer) F64s(vs []float64) {
	b.U32(uint32(len(vs)))
	data := slices.Grow(b.data, 8*len(vs))
	for _, v := range vs {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	b.data = data
}

// Sealed returns the payload followed by its CRC32-C trailer — the
// snapshot trailer convention applied to a single Buffer, for payloads
// that travel alone (the shard gather body) rather than as a section of
// a snapshot. OpenSealed is its inverse.
func (b *Buffer) Sealed() []byte {
	return binary.LittleEndian.AppendUint32(b.data, crc32.Checksum(b.data, castagnoli))
}

// OpenSealed verifies the CRC32-C trailer Sealed appended and returns a
// Reader over the payload before it. The data slice is retained.
func OpenSealed(data []byte) (*Reader, error) {
	if len(data) < trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	return &Reader{data: body}, nil
}

// Encoder assembles a snapshot: header, sections in the order they are
// begun, CRC trailer. It owns the one Buffer the whole snapshot is laid
// down in: Begin hands that Buffer out for a section's payload and End
// patches the section's length into its header, so no payload is built
// elsewhere and copied in.
type Encoder struct {
	buf  Buffer
	seen map[uint32]bool
	// open is the offset of the open section's length field, 0 (inside
	// the header, never a section's) when no section is open.
	open int
}

// NewEncoder returns an Encoder with the header already written.
func NewEncoder() *Encoder {
	e := &Encoder{seen: make(map[uint32]bool)}
	e.buf.data = append(e.buf.data, Magic[:]...)
	e.buf.U32(Version)
	return e
}

// Grow reserves room for n more bytes of sections plus the trailer, so a
// writer that can bound its snapshot's size allocates it once.
func (e *Encoder) Grow(n int) { e.buf.Grow(n + trailerLen) }

// Cap reports the bytes the Encoder can hold before it reallocates.
func (e *Encoder) Cap() int { return cap(e.buf.data) }

// Begin opens section id and returns the Buffer to append its payload
// to; the Buffer is the Encoder's own and only valid until End. Opening
// a section inside another, or the same id twice, panics: section ids
// identify component payloads and either is a writer bug.
func (e *Encoder) Begin(id uint32) *Buffer {
	if e.open != 0 {
		panic(fmt.Sprintf("persist: section %d begun inside an open section", id))
	}
	if e.seen[id] {
		panic(fmt.Sprintf("persist: duplicate section id %d", id))
	}
	e.seen[id] = true
	e.buf.U32(id)
	e.open = len(e.buf.data)
	e.buf.U64(0)
	return &e.buf
}

// End closes the open section, recording how many bytes were appended
// since Begin.
func (e *Encoder) End() {
	if e.open == 0 {
		panic("persist: End without an open section")
	}
	binary.LittleEndian.PutUint64(e.buf.data[e.open:], uint64(len(e.buf.data)-e.open-8))
	e.open = 0
}

// WriteTo computes the CRC32-C trailer and writes the whole snapshot.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	if e.open != 0 {
		panic("persist: WriteTo with an open section")
	}
	out := e.buf.Sealed()
	n, err := w.Write(out)
	// Restore the encoder to its pre-trailer state so WriteTo is
	// repeatable (out may alias the buffer's backing array).
	e.buf.data = out[:len(out)-trailerLen]
	return int64(n), err
}

// headerLen is magic + version; trailerLen the CRC. SectionOverhead is
// what a section costs beyond its payload — its id and length — for
// writers sizing an Encoder.Grow.
const (
	headerLen       = 8 + 4
	trailerLen      = 4
	SectionOverhead = 4 + 8
)

// Decoder verifies and splits a snapshot into its sections.
type Decoder struct {
	version  uint32
	sections map[uint32][]byte
}

// NewDecoder validates magic, checksum and version over the full
// snapshot and indexes its sections. The data slice is retained;
// callers must not mutate it while Readers are in use.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	var m [8]byte
	copy(m[:], data)
	if m != Magic {
		return nil, ErrMagic
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	d := &Decoder{
		version:  binary.LittleEndian.Uint32(data[8:]),
		sections: make(map[uint32][]byte),
	}
	if d.version < MinVersion || d.version > Version {
		return nil, fmt.Errorf("%w: %d (this build reads %d through %d)", ErrVersion, d.version, MinVersion, Version)
	}
	rest := body[headerLen:]
	for len(rest) > 0 {
		if len(rest) < SectionOverhead {
			return nil, fmt.Errorf("%w: dangling %d bytes after last section", ErrCorrupt, len(rest))
		}
		id := binary.LittleEndian.Uint32(rest)
		n := binary.LittleEndian.Uint64(rest[4:])
		rest = rest[SectionOverhead:]
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: section %d declares %d bytes, %d remain", ErrCorrupt, id, n, len(rest))
		}
		if _, dup := d.sections[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, id)
		}
		d.sections[id] = rest[:n]
		rest = rest[n:]
	}
	return d, nil
}

// Version reports the snapshot's format version.
func (d *Decoder) Version() uint32 { return d.version }

// Section returns a Reader over the payload of a section and whether
// the section is present.
func (d *Decoder) Section(id uint32) (*Reader, bool) {
	p, ok := d.sections[id]
	if !ok {
		return nil, false
	}
	return &Reader{data: p}, true
}

// MustSection returns a Reader over a section that the format requires.
func (d *Decoder) MustSection(id uint32) (*Reader, error) {
	r, ok := d.Section(id)
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	return r, nil
}

// SectionSizes reports payload size by section id (for introspection
// tools like `d3l index info`).
func (d *Decoder) SectionSizes() map[uint32]int {
	out := make(map[uint32]int, len(d.sections))
	for id, p := range d.sections {
		out[id] = len(p)
	}
	return out
}

// Reader consumes one section's payload. Errors are sticky: the first
// out-of-bounds read poisons the Reader, later reads return zero values,
// and Err reports the failure once at the end — decode loops stay free
// of per-read error plumbing.
type Reader struct {
	data []byte
	off  int
	err  error
}

// Err reports the first read error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: section payload exhausted at offset %d", ErrTruncated, r.off)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail()
		return nil
	}
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a length prefix and validates it against the remaining
// payload — n elements of at least elemSize encoded bytes each must
// still fit — so a corrupt count can never trigger an allocation out
// of proportion to the input. Decoders of composite elements call it
// with the element's smallest encoding.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || elemSize > 0 && n > r.Remaining()/elemSize {
		r.fail()
		return 0
	}
	return n
}

// Skip passes over n bytes unread, with the bounds check of a read.
func (r *Reader) Skip(n int) { r.take(n) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Count(1)
	return string(r.take(n))
}

// Bytes reads a length-prefixed byte slice (copied out of the payload).
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	p := r.take(n)
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// U32s reads a length-prefixed []uint32. Zero-length slices decode as
// nil, matching how a tombstoned attribute's released signatures are
// represented in memory.
func (r *Reader) U32s() []uint32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	p := r.take(4 * n)
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return out
}

// U64s reads a length-prefixed []uint64. Zero-length slices decode as
// nil, like U32s.
func (r *Reader) U64s() []uint64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.U32())
	}
	return out
}

// Ints reads a length-prefixed []int written by Buffer.Ints.
func (r *Reader) Ints() []int {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.I64())
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// AppendF64s reads a length-prefixed []float64 onto the end of dst, for
// decoders that lay many vectors out in one slab.
func (r *Reader) AppendF64s(dst []float64) []float64 {
	p := r.take(8 * r.Count(8))
	for ; len(p) >= 8; p = p[8:] {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(p)))
	}
	return dst
}
