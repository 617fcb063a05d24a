// Package persist implements the binary snapshot container every
// engine component serializes into: a magic header, a format version,
// a sequence of length-prefixed sections, and a CRC32-C trailer.
//
// The container is deliberately dumb: it knows nothing about engines,
// forests or profiles. Components append primitive values (integers,
// strings, numeric slices) to the Buffer an Encoder hands out per section,
// and read them back through section Readers obtained from a Decoder.
//
// An Encoder streams a snapshot to an io.Writer through one
// constant-size window. A section's one encode function runs twice: into
// a counting sink, for the length its header declares, then to the
// writer. So the layout is written down once, in the encoders, and a
// save never holds the whole snapshot. WriteFile replaces a file whole,
// so a crash leaves the old file or the new one, never a mix.
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
// ErrVersion rather than guessing. This build writes and reads Version
// only, so no section decoder asks which version it is reading.
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
//	4  The forests section (id 4) is no longer written. The four LSH
//	   forests are a function of the profiles' signatures, and every
//	   load rebuilds them exactly as a build over the live attributes
//	   would.
//	5  SecJoinGraph holds what Algorithm 3 reads of the SA-join graph:
//	   one uint32 offset per table plus one, then every table's
//	   neighbour ids as uint32s, in list order. Versions 2–4 stored each
//	   edge in full, both directions, as From, To, the two attribute ids
//	   and the overlap.
//	6  Every number takes the width its value needs. In SecLake,
//	   SecSigs, SecAttrs and SecJoinGraph each count, length, id,
//	   position and size is a Uvarint, and a subject attribute a Varint
//	   (it may be -1). A numeric extent is written scaled — a decimal
//	   scale d, then its first value times 10^d as a Varint and each
//	   later one as a Uvarint step up from the one before — whenever
//	   that reproduces every value bit for bit, and as raw float64s
//	   otherwise. SecJoinGraph holds each table's neighbour count, then
//	   the ids. MinHash slots, SimHash words and raw extents stay full
//	   width: they are uniform bits. SecOptions is unchanged.
//	7  SecOptions holds only what the index is built from: sketch
//	   widths, forest layout, τ, q, seed, the subject classifier's
//	   coefficients and the extent sample cap. The Eq. 3 weights, the
//	   evidence mask, the candidate budget and the Eq. 1 weighting flag
//	   are query parameters, and parallelism a property of the serving
//	   host, so none of them is written. Nothing else differs.
//
// This build writes and reads version 7 and refuses 1 through 6 with
// ErrVersion naming the version: their layouts are not read. Rebuild an
// older snapshot from its lake.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// Magic identifies a D3L snapshot stream; the trailing zero byte keeps
// it from being a printable prefix of any text format.
var Magic = [8]byte{'D', '3', 'L', 'S', 'N', 'A', 'P', 0}

// Version is the snapshot format version this build writes; MinVersion
// the oldest it reads, which is the same one.
const (
	Version    uint32 = 7
	MinVersion uint32 = Version
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
	// Id 4 is reserved: versions 1 to 3 stored the four LSH forests
	// under it. No later section takes it.

	// SecJoinGraph holds the SA-join graph's neighbour ids (optional:
	// written by d3l.Save when the engine holds a graph, absent from
	// bare core snapshots).
	SecJoinGraph uint32 = 5
	// SecSigs holds the table of distinct MinHash signatures that
	// SecAttrs' profiles refer to by position. It is written before
	// SecAttrs.
	SecSigs uint32 = 6
)

// Decoding errors. Decoders wrap these, so test with errors.Is.
var (
	// ErrMagic marks input that is not a D3L snapshot at all.
	ErrMagic = errors.New("persist: bad magic, not a d3l snapshot")
	// ErrVersion marks a snapshot of a format version this build does
	// not read: an older one, or one it does not know.
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

// Buffer accumulates a payload. All fixed-width values are
// little-endian; slices and strings are length-prefixed with a uint32
// count, or, through the V methods, with a Uvarint one. The zero value
// is a standalone Buffer that holds its whole payload (the shard gather
// body, through Sealed). The Buffer an Encoder hands a section's encode
// function is a window that spills to the Encoder's sink whenever the
// next value would not fit; a value longer than the window grows it.
type Buffer struct {
	data []byte
	sink *sink // nil for a standalone Buffer
}

// sink counts the bytes a window spills and, given a writer, checksums
// them and writes them on, keeping the first write error.
type sink struct {
	w   io.Writer // nil for a count pass
	n   int64
	crc uint32
	err error
}

// spill hands what the window holds to its sink.
func (b *Buffer) spill() {
	s := b.sink
	s.n += int64(len(b.data))
	if s.w != nil && s.err == nil {
		s.crc = crc32.Update(s.crc, castagnoli, b.data)
		_, s.err = s.w.Write(b.data)
	}
	b.data = b.data[:0]
}

// room makes space for n more bytes — a window spills when they do not
// fit, a standalone Buffer grows — and returns the data to append to.
func (b *Buffer) room(n int) []byte {
	if cap(b.data)-len(b.data) < n {
		if b.sink != nil {
			b.spill()
		}
		b.data = slices.Grow(b.data, n)
	}
	return b.data
}

// Reset empties a standalone Buffer and keeps its storage, so a writer
// that recycles one Buffer for payload after payload stops growing it
// once it holds the largest.
func (b *Buffer) Reset() { b.data = b.data[:0] }

// U8 appends one byte.
func (b *Buffer) U8(v uint8) { b.data = append(b.room(1), v) }

// Bool appends a bool as one byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.U8(1)
	} else {
		b.U8(0)
	}
}

// U32 appends a uint32.
func (b *Buffer) U32(v uint32) { b.data = binary.LittleEndian.AppendUint32(b.room(4), v) }

// U64 appends a uint64.
func (b *Buffer) U64(v uint64) { b.data = binary.LittleEndian.AppendUint64(b.room(8), v) }

// I64 appends an int64 (two's complement).
func (b *Buffer) I64(v int64) { b.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (b *Buffer) F64(v float64) { b.U64(math.Float64bits(v)) }

// Uvarint appends v in as few bytes as it needs: seven bits a byte,
// low bits first, the high bit of each byte but the last set.
func (b *Buffer) Uvarint(v uint64) { b.data = binary.AppendUvarint(b.room(binary.MaxVarintLen64), v) }

// Varint appends v zigzag-mapped (0, -1, 1, -2, … to 0, 1, 2, 3, …), so
// a value near zero of either sign is as short as a small Uvarint.
func (b *Buffer) Varint(v int64) { b.data = binary.AppendVarint(b.room(binary.MaxVarintLen64), v) }

// VStr appends a string prefixed with its length as a Uvarint.
func (b *Buffer) VStr(s string) {
	b.Uvarint(uint64(len(s)))
	b.data = append(b.room(len(s)), s...)
}

// VU32s appends a []uint32 prefixed with its length as a Uvarint, the
// values at full width: MinHash slots are uniform 32-bit values, which
// no shorter code holds. MinHash signatures — most of a snapshot's
// bytes — go through here, so room is made once and the slots are
// appended through a local slice header rather than one b.data store
// (and GC write barrier) per slot.
func (b *Buffer) VU32s(vs []uint32) {
	b.Uvarint(uint64(len(vs)))
	data := b.room(4 * len(vs))
	for _, v := range vs {
		data = binary.LittleEndian.AppendUint32(data, v)
	}
	b.data = data
}

// VU64s appends a []uint64 prefixed with its length as a Uvarint, the
// values at full width.
func (b *Buffer) VU64s(vs []uint64) {
	b.Uvarint(uint64(len(vs)))
	data := b.room(8 * len(vs))
	for _, v := range vs {
		data = binary.LittleEndian.AppendUint64(data, v)
	}
	b.data = data
}

// F64s appends a length-prefixed []float64, room made once and the
// values appended through a local slice header like VU32s.
func (b *Buffer) F64s(vs []float64) {
	b.U32(uint32(len(vs)))
	data := b.room(8 * len(vs))
	for _, v := range vs {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	b.data = data
}

// Sealed returns a standalone Buffer's payload followed by its CRC32-C
// trailer — the snapshot trailer convention applied to a single Buffer,
// for payloads that travel alone (the shard gather body) rather than as
// a section of a snapshot. OpenSealed is its inverse.
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

// Encoder streams a snapshot to a writer: the header, then each section
// as Section is called, then, on Close, the CRC trailer. It holds one
// window of the snapshot at a time, whatever the snapshot's size.
type Encoder struct {
	buf               Buffer
	out               sink
	seen              map[uint32]bool // the section ids written
	inSection, closed bool
}

// NewEncoder returns an Encoder that writes a snapshot to w, the header
// first.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{out: sink{w: w}, seen: make(map[uint32]bool)}
	e.buf = Buffer{data: make([]byte, 0, window), sink: &e.out}
	e.buf.data = append(e.buf.data, Magic[:]...)
	e.buf.U32(Version)
	return e
}

// Section writes section id, whose payload encode appends to the Buffer
// it is handed. encode runs twice: the first run only counts the bytes,
// which the section's header declares before the payload, and the
// second writes them. It must therefore append the same bytes both
// times; one that does not, a section inside another, the same id
// twice, or a Section after Close, is a writer bug and panics. A write
// error is kept for Close to return.
func (e *Encoder) Section(id uint32, encode func(*Buffer)) {
	if e.inSection || e.closed || e.seen[id] {
		panic(fmt.Sprintf("persist: section %d begun inside another, after Close or twice", id))
	}
	e.seen[id], e.inSection = true, true
	e.buf.spill() // what comes before the section goes out before it is counted
	var count sink
	e.buf.sink = &count
	encode(&e.buf)
	e.buf.spill()
	e.buf.sink = &e.out
	e.buf.U32(id)
	e.buf.U64(uint64(count.n))
	start := e.out.n + int64(len(e.buf.data))
	encode(&e.buf)
	if n := e.out.n + int64(len(e.buf.data)) - start; n != count.n {
		panic(fmt.Sprintf("persist: section %d counted %d bytes and wrote %d: its encode function appended different bytes on each run", id, count.n, n))
	}
	e.inSection = false
}

// Close writes what the window still holds and the CRC32-C trailer, and
// returns the first error writing any of it met. Closing inside a
// section or twice is a writer bug and panics.
func (e *Encoder) Close() error {
	if e.inSection || e.closed {
		panic("persist: Close inside a section or twice")
	}
	e.closed = true
	e.buf.spill()
	if e.out.err == nil {
		_, e.out.err = e.out.w.Write(binary.LittleEndian.AppendUint32(nil, e.out.crc))
	}
	return e.out.err
}

// headerLen is magic + version; trailerLen the CRC; sectionOverhead what
// a section costs beyond its payload, its id and length.
const (
	headerLen       = 8 + 4
	trailerLen      = 4
	sectionOverhead = 4 + 8
)

// WriteFile replaces the file at path, mode 0644, with what write
// writes, so that a crash at any moment leaves the old file or the whole
// new one under path. The bytes go to a temporary file beside path,
// which is synced and closed, then renamed over path; the directory is
// synced last, so the rename itself survives a crash. On any failure
// before the rename the temporary file is removed and path left as it
// was.
//
// A writer that is killed leaves its temporary file behind. The file's
// name carries its writer's pid (path.PID.N.tmp), and before it writes,
// WriteFile removes those of path whose pid names no live process
// (removeDeadTemps). It never removes its own process's, so two saves
// to one path from one process stay safe. A writer on another host, or
// in another pid namespace, looks dead: one directory serves the
// writers of one host.
func WriteFile(path string, write func(io.Writer) error) error {
	prefix := filepath.Base(path) + "."
	removeDeadTemps(filepath.Dir(path), prefix)
	f, err := os.CreateTemp(filepath.Dir(path), prefix+strconv.Itoa(os.Getpid())+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// removeDeadTemps removes the files in dir named prefix+PID.N.tmp whose
// writer, process PID, is gone: signalling it with signal 0 fails with
// ESRCH (any other answer, EPERM included, counts as alive). A file it
// cannot list or remove stays; it costs disk, not correctness.
func removeDeadTemps(dir, prefix string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if pid, ok := tempPID(ent.Name(), prefix); ok && pid != os.Getpid() && !processAlive(pid) {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// tempPID parses the writer's pid out of a temporary file's name,
// prefix+PID.N.tmp with PID and N decimal.
func tempPID(name, prefix string) (int, bool) {
	rest, hasPrefix := strings.CutPrefix(name, prefix)
	rest, hasSuffix := strings.CutSuffix(rest, ".tmp")
	pidText, n, twoParts := strings.Cut(rest, ".")
	pid, err := strconv.Atoi(pidText)
	_, nerr := strconv.ParseUint(n, 10, 64)
	return pid, hasPrefix && hasSuffix && twoParts && err == nil && nerr == nil && pid > 0
}

// processAlive reports whether process pid may still be running.
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return true
	}
	defer p.Release()
	return !errors.Is(p.Signal(syscall.Signal(0)), os.ErrProcessDone)
}

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
		return nil, fmt.Errorf("%w: %d (this build reads %d; rebuild the snapshot from its lake)", ErrVersion, d.version, Version)
	}
	for off := int64(headerLen); off < body; {
		if body-off < sectionOverhead {
			return nil, fmt.Errorf("%w: dangling %d bytes after last section", ErrCorrupt, body-off)
		}
		var h [sectionOverhead]byte
		if err := readAt(src, h[:], off); err != nil {
			return nil, err
		}
		id := binary.LittleEndian.Uint32(h[:])
		n := binary.LittleEndian.Uint64(h[4:])
		off += sectionOverhead
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

// Uvarint reads a value Buffer.Uvarint wrote. A code longer than ten
// bytes, or one whose value does not fit 64 bits, is ErrCorrupt; a
// payload that ends inside one, ErrTruncated.
func (r *Reader) Uvarint() uint64 {
	if !r.page(min(binary.MaxVarintLen64, r.Remaining())) {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail()
	case r.err == nil:
		r.err = fmt.Errorf("%w: a varint of more than 64 bits", ErrCorrupt)
	}
	return 0
}

// Varint reads a value Buffer.Varint wrote.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// VCount is Count of a Uvarint length prefix. Every element of a
// Uvarint-counted layout takes at least one byte, so elemSize is at
// least 1 however small the element's smallest encoding.
func (r *Reader) VCount(elemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/max(elemSize, 1)) {
		r.fail()
		return 0
	}
	return int(n)
}

// VStr reads a string Buffer.VStr wrote.
func (r *Reader) VStr() string { return r.str(r.VCount(1)) }

func (r *Reader) str(n int) string {
	var b strings.Builder
	b.Grow(n)
	r.chunks(n, 1, func(p []byte) { b.Write(p) })
	if r.err != nil {
		return ""
	}
	return b.String()
}

// VU32s reads a []uint32 Buffer.VU32s wrote into buf's storage when it
// has room, into a fresh slice otherwise, and returns it: a decoder
// reading values it only looks at can reuse one buffer for all of them.
// Zero-length slices decode as buf[:0], so as nil for a nil buf.
func (r *Reader) VU32s(buf []uint32) []uint32 {
	n := r.VCount(4)
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

// AppendVU64s reads a slice Buffer.VU64s wrote onto the end of dst, for
// decoders that lay many vectors out in one slab. A zero-length slice
// appends nothing, so it decodes as nil onto a nil dst.
func (r *Reader) AppendVU64s(dst []uint64) []uint64 {
	r.chunks(r.VCount(8), 8, func(p []byte) {
		for ; len(p) > 0; p = p[8:] {
			dst = append(dst, binary.LittleEndian.Uint64(p))
		}
	})
	return dst
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	return r.f64s(make([]float64, 0, n), n)
}

func (r *Reader) f64s(dst []float64, n int) []float64 {
	r.chunks(n, 8, func(p []byte) {
		for ; len(p) > 0; p = p[8:] {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
	})
	return dst
}
