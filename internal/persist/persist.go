// Package persist implements the binary snapshot container every
// engine component serializes into: a magic header, a format version,
// a sequence of length-prefixed sections, and a CRC32-C trailer.
//
// The container is deliberately dumb: it knows nothing about engines,
// forests or profiles. Components append primitive values (integers,
// strings, numeric slices) to the Buffer an Encoder hands out per section,
// and read them back through section Readers obtained from a Decoder.
//
// A Decoder reads a snapshot of known size from an io.ReaderAt — an open
// file, or bytes.NewReader over bytes already in memory — in two passes
// through one constant-size window. The first streams the whole snapshot
// to verify magic, checksum and version and records where each section
// lies, so component decoders can assume structurally intact input and
// concentrate on semantic validation (id ranges, layout invariants).
// The second is the decoding itself: a section Reader pages its payload
// in window by window, and a bulk read allocates its destination once
// and fills it a window at a time. A snapshot loaded from a file is
// never resident beside the values decoded from it.
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
//	3  A new mandatory section, SecSigs, holds each distinct MinHash
//	   signature once, in the order the profiles first use it; a profile
//	   in SecAttrs carries three uint32 positions into that table (0 for
//	   a nil signature) where version 2 carried the signatures.
//	4  SecForests is no longer written. The four LSH forests are a
//	   function of the profiles' signatures, and every load rebuilds
//	   them exactly as a build over the live attributes would.
//
// This build reads versions 2 and 3 as well. Neither's SecForests is
// read: their forests are rebuilt like a version 4 file's, so a file's
// forests can never disagree with its profiles, and there is one decode
// path for them. Version 2 profiles load through the per-profile decode
// path version 3 replaced: every snapshot built before version 3 with
// 32-bit slots is one. This build refuses version 1 with ErrVersion
// naming the version: reading it would keep a second slot width in that
// path for the one format three changes old. Rebuild a version 1
// snapshot from its lake.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
)

// Magic identifies a D3L snapshot stream; the trailing zero byte keeps
// it from being a printable prefix of any text format.
var Magic = [8]byte{'D', '3', 'L', 'S', 'N', 'A', 'P', 0}

// Version is the snapshot format version this build writes; MinVersion
// the oldest it still reads.
const (
	Version    uint32 = 4
	MinVersion uint32 = 2
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
	// SecForests held the four LSH forests I_N, I_V, I_F, I_E in
	// versions 2 and 3. Version 4 does not write it, and no version's is
	// read: a load rebuilds the forests from SecAttrs.
	SecForests uint32 = 4
	// SecJoinGraph holds the SA-join graph (optional: written by
	// d3l.Save when the engine holds a graph, absent from bare core
	// snapshots).
	SecJoinGraph uint32 = 5
	// SecSigs holds the table of distinct MinHash signatures that
	// SecAttrs' profiles refer to by position (version 3 on). It is
	// written before SecAttrs.
	SecSigs uint32 = 6
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
	return &Reader{buf: body}, nil
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

// window is the size of the one buffer a Decoder reads its source
// through: the checksum pass streams the snapshot through it, and every
// section Reader pages its payload in through it. What a load holds
// beyond the values it decodes is this constant, whatever the
// snapshot's size.
const window = 64 << 10

// span locates a section's payload in the source.
type span struct{ off, n int64 }

// Decoder verifies a snapshot and hands out Readers over its sections,
// reading from the source on demand: the snapshot itself is never held
// in memory.
type Decoder struct {
	src      io.ReaderAt
	version  uint32
	sections map[uint32]span
	win      []byte
	// lent is the Reader that holds win, poisoned when the next Section
	// takes the window over.
	lent *Reader
}

// NewDecoder verifies the size-byte snapshot src holds and indexes its
// sections. It streams the snapshot through the window once —
// magic, then the CRC32-C trailer, then the version — before it reads
// the section headers, so no byte reaches a component decoder unless the
// checksum passed. Section Readers read src again; src must not change
// while they are in use (SaveFile replaces a snapshot by rename, which a
// file already open does not see).
func NewDecoder(src io.ReaderAt, size int64) (*Decoder, error) {
	if size < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, size)
	}
	d := &Decoder{src: src, sections: make(map[uint32]span), win: make([]byte, min(window, size))}
	body := size - trailerLen
	var crc uint32
	for off := int64(0); off < body; {
		p := d.win[:min(int64(len(d.win)), body-off)]
		if err := readAt(src, p, off); err != nil {
			return nil, err
		}
		if off == 0 {
			if [8]byte(p) != Magic {
				return nil, ErrMagic
			}
			d.version = binary.LittleEndian.Uint32(p[8:])
		}
		crc = crc32.Update(crc, castagnoli, p)
		off += int64(len(p))
	}
	var trailer [trailerLen]byte
	if err := readAt(src, trailer[:], body); err != nil {
		return nil, err
	}
	if crc != binary.LittleEndian.Uint32(trailer[:]) {
		return nil, ErrChecksum
	}
	if d.version < MinVersion || d.version > Version {
		return nil, fmt.Errorf("%w: %d (this build reads %d through %d)", ErrVersion, d.version, MinVersion, Version)
	}
	for off := int64(headerLen); off < body; {
		if body-off < SectionOverhead {
			return nil, fmt.Errorf("%w: dangling %d bytes after last section", ErrCorrupt, body-off)
		}
		var h [SectionOverhead]byte
		if err := readAt(src, h[:], off); err != nil {
			return nil, err
		}
		id := binary.LittleEndian.Uint32(h[:])
		n := binary.LittleEndian.Uint64(h[4:])
		off += SectionOverhead
		if n > uint64(body-off) {
			return nil, fmt.Errorf("%w: section %d declares %d bytes, %d remain", ErrCorrupt, id, n, body-off)
		}
		if _, dup := d.sections[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, id)
		}
		d.sections[id] = span{off, int64(n)}
		off += int64(n)
	}
	return d, nil
}

// readAt fills p from src at off. A source that ends early — a file
// shorter than the size it was opened with — is ErrTruncated.
func readAt(src io.ReaderAt, p []byte, off int64) error {
	n, err := src.ReadAt(p, off)
	switch {
	case n == len(p):
		return nil
	case err == nil || errors.Is(err, io.EOF):
		return fmt.Errorf("%w: %d of %d bytes at offset %d", ErrTruncated, n, len(p), off)
	default:
		return fmt.Errorf("persist: read at offset %d: %w", off, err)
	}
}

// Version reports the snapshot's format version.
func (d *Decoder) Version() uint32 { return d.version }

// errSuperseded poisons a section Reader whose window a later Section
// call took over.
var errSuperseded = errors.New("persist: section reader used after a later Decoder.Section")

// Section returns a Reader over the payload of a section and whether
// the section is present. Readers share the Decoder's window, so each
// call ends the Reader the previous one returned: reading from it
// afterwards fails.
func (d *Decoder) Section(id uint32) (*Reader, bool) {
	s, ok := d.sections[id]
	if !ok {
		return nil, false
	}
	if d.lent != nil && d.lent.err == nil {
		d.lent.err = errSuperseded
	}
	d.lent = &Reader{src: d.src, buf: d.win[:0], next: s.off, end: s.off + s.n}
	return d.lent, true
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
	for id, s := range d.sections {
		out[id] = int(s.n)
	}
	return out
}

// Reader consumes one section's payload, paging it in from its source
// through a window. Errors are sticky: the first out-of-bounds or failed
// read poisons the Reader, later reads return zero values, and Err
// reports the failure once at the end — decode loops stay free of
// per-read error plumbing.
//
// OpenSealed's Reader has no source: its window is the whole payload and
// never refills, so a copy of it reads on independently. A Decoder's
// Readers refill a shared window and must not be copied.
type Reader struct {
	src io.ReaderAt
	// buf is the window; buf[off:] is paged in and unread.
	buf []byte
	off int
	// next is the source offset of the first byte not yet paged in, end
	// the offset just past the payload.
	next, end int64
	err       error
}

// Err reports the first read error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off + int(r.end-r.next) }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: section payload exhausted with %d bytes left", ErrTruncated, r.Remaining())
	}
}

// page makes at least n unread bytes resident, n at most the window's
// capacity, refilling the window from the source when fewer are. It
// reports false, the Reader poisoned, when the payload holds fewer.
func (r *Reader) page(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf)-r.off >= n {
		return true
	}
	if n < 0 || r.Remaining() < n {
		r.fail()
		return false
	}
	k := copy(r.buf[:cap(r.buf)], r.buf[r.off:])
	m := int(min(int64(cap(r.buf)-k), r.end-r.next))
	r.buf, r.off = r.buf[:k+m], 0
	if err := readAt(r.src, r.buf[k:], r.next); err != nil {
		r.err = err
		return false
	}
	r.next += int64(m)
	return true
}

// take consumes n resident bytes, n at most the window's capacity.
func (r *Reader) take(n int) []byte {
	if !r.page(n) {
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// chunks consumes n elements of size bytes each, handing fn the
// window's bytes a whole number of elements at a time. Callers have
// checked n against Remaining with Count.
func (r *Reader) chunks(n, size int, fn func(p []byte)) {
	for n > 0 && r.page(size) {
		k := min(n, (len(r.buf)-r.off)/size)
		fn(r.buf[r.off : r.off+k*size])
		r.off += k * size
		n -= k
	}
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
func (r *Reader) Skip(n int) {
	if r.err != nil {
		return
	}
	if n < 0 || r.Remaining() < n {
		r.fail()
		return
	}
	k := min(n, len(r.buf)-r.off)
	r.off += k
	r.next += int64(n - k)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	var b strings.Builder
	n := r.Count(1)
	b.Grow(n)
	r.chunks(n, 1, func(p []byte) { b.Write(p) })
	if r.err != nil {
		return ""
	}
	return b.String()
}

// U32s reads a length-prefixed []uint32 into buf's storage when it has
// room, into a fresh slice otherwise, and returns it: a decoder reading
// values it only looks at (MinHash signatures, which the engine keeps
// one copy of each) can reuse one buffer for all of them. Zero-length
// slices decode as buf[:0], so as nil for a nil buf, matching how a
// tombstoned attribute's released signatures are represented in memory.
func (r *Reader) U32s(buf []uint32) []uint32 {
	n := r.Count(4)
	if cap(buf) < n {
		buf = make([]uint32, n)
	}
	out, i := buf[:n], 0
	r.chunks(n, 4, func(p []byte) {
		for ; len(p) > 0; p = p[4:] {
			out[i] = binary.LittleEndian.Uint32(p)
			i++
		}
	})
	return out
}

// U64s reads a length-prefixed []uint64. Zero-length slices decode as
// nil, like U32s.
func (r *Reader) U64s() []uint64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out, i := make([]uint64, n), 0
	r.chunks(n, 8, func(p []byte) {
		for ; len(p) > 0; p = p[8:] {
			out[i] = binary.LittleEndian.Uint64(p)
			i++
		}
	})
	return out
}

// Ints reads a length-prefixed []int written by Buffer.Ints.
func (r *Reader) Ints() []int {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out, i := make([]int, n), 0
	r.chunks(n, 8, func(p []byte) {
		for ; len(p) > 0; p = p[8:] {
			out[i] = int(int64(binary.LittleEndian.Uint64(p)))
			i++
		}
	})
	return out
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	return r.f64s(make([]float64, 0, n), n)
}

// AppendF64s reads a length-prefixed []float64 onto the end of dst, for
// decoders that lay many vectors out in one slab.
func (r *Reader) AppendF64s(dst []float64) []float64 { return r.f64s(dst, r.Count(8)) }

func (r *Reader) f64s(dst []float64, n int) []float64 {
	r.chunks(n, 8, func(p []byte) {
		for ; len(p) > 0; p = p[8:] {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
	})
	return dst
}
