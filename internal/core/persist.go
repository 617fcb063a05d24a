package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"d3l/internal/mlearn"
	"d3l/internal/persist"
	"d3l/internal/subject"
	"d3l/internal/table"
)

// This file implements engine snapshots: the build-once / serve-many
// path. A snapshot captures what the indexing phase produced that a
// replica cannot derive — build options, lake metadata, the table of
// distinct MinHash signatures and the attribute profiles (with the
// tombstone set) — so a serving replica cold-starts by deserialising
// instead of re-profiling the lake. What is a function of those is rebuilt at load
// time rather than stored: the hash machinery (MinHash families,
// random-projection planes, the embedding model) from Options.Seed, and
// the four LSH forests from the profiles' signatures, through the
// indexLive every build runs. The subject classifier's coefficients are
// stored, so a replica profiles targets with exactly the classifier the
// snapshot was built with even if the shipped default changes.

// AppendSnapshot writes the engine's sections to enc; the public d3l
// package appends the SA-join graph after them and closes enc. The read
// lock is held across the whole write, so the sections are mutually
// consistent under concurrent mutations.
func (e *Engine) AppendSnapshot(enc *persist.Encoder) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	pos, order := e.sigPositions()
	marks := e.extentMarks()
	enc.Section(persist.SecOptions, e.encodeOptions)
	enc.Section(persist.SecLake, e.lake.EncodeMeta)
	enc.Section(persist.SecSigs, func(b *persist.Buffer) {
		b.Uvarint(uint64(len(order)))
		for _, id := range order {
			b.VU32s(e.sigs.sigs[id])
		}
	})
	enc.Section(persist.SecAttrs, func(b *persist.Buffer) { e.encodeAttrs(b, pos, marks) })
}

// sigPositions numbers the signatures the records hold in the order
// they first use them (by attribute id; Q, then T, then R), from 1 so
// that 0 stays a nil signature: pos maps an engine id to its position in
// SecSigs, and order lists the engine ids by position. The file carries
// positions, not engine ids, so it is a function of the records alone,
// never of which ids the table's free list handed out. Caller holds e.mu.
func (e *Engine) sigPositions() (pos []uint32, order []int32) {
	pos = make([]uint32, len(e.sigs.sigs))
	for i := range e.attrs {
		a := &e.attrs[i]
		for _, id := range [3]int32{a.q, a.t, a.r} {
			if id != 0 && pos[id] == 0 {
				order = append(order, id)
				pos[id] = uint32(len(order))
			}
		}
	}
	return pos, order
}

// extentMarks chooses every attribute's extent coding once, for both
// runs of the SecAttrs encoder: marks[i] is attribute i's (codeExtent).
// Caller holds e.mu.
func (e *Engine) extentMarks() []uint8 {
	marks := make([]uint8, len(e.attrs))
	for i := range e.attrs {
		marks[i] = codeExtent(e.attrs[i].extent)
	}
	return marks
}

// LoadEngine reads a snapshot whose sections AppendSnapshot encoded and
// reconstructs an engine that answers every query identically to the
// one the snapshot was taken from, and accepts Add/Remove mutations
// from there on. Corrupt, truncated or version-mismatched input fails
// with an error wrapping the persist sentinel errors; it never panics.
func LoadEngine(r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	dec, err := persist.NewDecoder(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return DecodeEngine(dec)
}

// DecodeEngine reconstructs an engine from an already-verified
// snapshot decoder (LoadEngine is the plain-reader convenience) and
// rebuilds its forests from the records. It reads the decoder's
// sections one after another, so the decoder must not be read from
// elsewhere until it returns.
func DecodeEngine(dec *persist.Decoder) (*Engine, error) {
	ro, err := dec.MustSection(persist.SecOptions)
	if err != nil {
		return nil, err
	}
	opts, err := decodeOptions(ro)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", err)
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	prof, err := newProfiler(opts)
	if err != nil {
		return nil, err
	}
	grid, err := gridFor(opts.MinHashSize, opts.EmbedBits)
	if err != nil {
		return nil, err
	}

	rl, err := dec.MustSection(persist.SecLake)
	if err != nil {
		return nil, err
	}
	lake, err := table.DecodeLakeMeta(rl)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot lake: %w", err)
	}

	e := &Engine{
		opts:       opts,
		lake:       lake,
		prof:       prof,
		classifier: opts.subjectClassifier(),
		grid:       grid,
	}
	rs, err := dec.MustSection(persist.SecSigs)
	if err != nil {
		return nil, err
	}
	if err := e.sigs.load(rs); err != nil {
		return nil, fmt.Errorf("core: snapshot signatures: %w", err)
	}
	ra, err := dec.MustSection(persist.SecAttrs)
	if err != nil {
		return nil, err
	}
	if err := e.decodeAttrs(ra); err != nil {
		return nil, fmt.Errorf("core: snapshot attributes: %w", err)
	}
	if len(e.byTable) != lake.Len() {
		return nil, fmt.Errorf("%w: %d attribute table slots for %d lake tables",
			persist.ErrCorrupt, len(e.byTable), lake.Len())
	}

	// The forests are a function of the records, so they are rebuilt, not
	// read.
	start := time.Now()
	if e.forests, err = e.indexLive(); err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	e.buildTimings.Index = time.Since(start)
	e.fpBase = e.fingerprintBase()
	e.assertSigTable("DecodeEngine")
	return e, nil
}

// encodeOptions writes the build options — everything the index is a
// function of — plus the resolved subject classifier coefficients.
// Query parameters and Parallelism are not part of a snapshot. Field
// order is part of the format.
func (e *Engine) encodeOptions(b *persist.Buffer) {
	o := e.opts
	b.I64(int64(o.MinHashSize))
	b.F64(o.Threshold)
	b.I64(int64(o.QGramQ))
	b.I64(int64(o.ForestTrees))
	b.I64(int64(o.ForestHashes))
	b.I64(int64(o.EmbedBits))
	b.U64(o.Seed)
	m := e.classifier.Model()
	b.F64s(m.Weights)
	b.F64(m.Bias)
	b.I64(int64(o.MaxExtentSample))
}

// maxSnapshotSketchWidth bounds the MinHashSize and EmbedBits a snapshot
// may declare. The hash families and projection planes are rebuilt from
// them at load time — memory the options name rather than carry — so
// the cap keeps a corrupt or adversarial snapshot from requesting absurd
// allocations. The paper and every shipped configuration use 256.
const maxSnapshotSketchWidth = 1 << 12

func decodeOptions(r *persist.Reader) (Options, error) {
	var o Options
	o.MinHashSize = int(r.I64())
	o.Threshold = r.F64()
	o.QGramQ = int(r.I64())
	o.ForestTrees = int(r.I64())
	o.ForestHashes = int(r.I64())
	o.EmbedBits = int(r.I64())
	o.Seed = r.U64()
	cw := r.F64s()
	bias := r.F64()
	o.MaxExtentSample = int(r.I64())
	if err := r.Err(); err != nil {
		return o, err
	}
	if o.MinHashSize > maxSnapshotSketchWidth || o.EmbedBits > maxSnapshotSketchWidth {
		return o, fmt.Errorf("%w: MinHashSize %d, EmbedBits %d", persist.ErrCorrupt, o.MinHashSize, o.EmbedBits)
	}
	cls, err := subject.FromModel(&mlearn.LogisticModel{Weights: cw, Bias: bias})
	if err != nil {
		return o, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	o.Subject = cls
	return o, nil
}

// encodeAttrs writes the attribute records, one profile each, and the
// per-table indexes; pos maps a signature's engine id to its position in
// SecSigs, and marks[i] is attribute i's extent coding. Tombstoned
// attributes are already metadata-only stubs (Remove releases their
// payloads), so snapshots do not grow with mutation churn beyond a name
// per dead attribute.
func (e *Engine) encodeAttrs(b *persist.Buffer, pos []uint32, marks []uint8) {
	b.Uvarint(uint64(len(e.attrs)))
	for i := range e.attrs {
		e.encodeProfile(b, i, pos, marks[i])
	}
	b.Uvarint(uint64(len(e.byTable)))
	for tid, attrs := range e.byTable {
		b.Uvarint(uint64(len(attrs)))
		for _, a := range attrs {
			b.Uvarint(uint64(a))
		}
		b.Varint(int64(e.subjects[tid]))
		b.Bool(e.alive[tid])
	}
}

// Minimum encoded sizes, used to bound up-front allocations against a
// crafted snapshot that declares huge counts: a valid CRC proves
// nothing about intent, and the declared count must be achievable
// within the bytes that actually follow: every field takes a byte at
// least.
const (
	// minProfileEnc: two ids, a name count, two bools, three signature
	// positions, a size, an embedding count, a bool and an extent count.
	minProfileEnc = 12
	// minTableEnc: attr-list count + subject + alive bool.
	minTableEnc = 3
)

func (e *Engine) decodeAttrs(r *persist.Reader) error {
	// A count or id past the int range comes out negative, which the
	// checks below refuse.
	numProfiles := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return err
	}
	if numProfiles < 0 || numProfiles > r.Remaining()/minProfileEnc {
		return fmt.Errorf("%w: %d profiles declared in %d bytes", persist.ErrCorrupt, numProfiles, r.Remaining())
	}
	e.attrs, e.embeds = make([]attr, 0, numProfiles), make([]uint64, 0, numProfiles*e.embedWords())
	for range numProfiles {
		if err := e.decodeProfile(r); err != nil {
			return err
		}
	}
	if err := e.sigs.allHeld(); err != nil {
		return err
	}
	numTables := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return err
	}
	if numTables < 0 || numTables > r.Remaining()/minTableEnc {
		return fmt.Errorf("%w: %d tables declared in %d bytes", persist.ErrCorrupt, numTables, r.Remaining())
	}
	e.byTable = make([][]int, numTables)
	e.subjects = make([]int, numTables)
	e.alive = make([]bool, numTables)
	for tid := 0; tid < numTables; tid++ {
		e.byTable[tid] = decodeIDs(r)
		e.subjects[tid] = int(r.Varint())
		e.alive[tid] = r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		for _, attrID := range e.byTable[tid] {
			if attrID < 0 || attrID >= numProfiles {
				return fmt.Errorf("%w: table %d lists attribute %d of %d", persist.ErrCorrupt, tid, attrID, numProfiles)
			}
		}
		if s := e.subjects[tid]; s < -1 || s >= numProfiles {
			return fmt.Errorf("%w: table %d subject attribute %d of %d", persist.ErrCorrupt, tid, s, numProfiles)
		}
	}
	// Record table ids index e.subjects and e.byTable at query time,
	// so they are validated against the table count even though the
	// checksum makes a mismatch unreachable from honest writers.
	for i := range e.attrs {
		if a := &e.attrs[i]; int(a.table) >= numTables {
			return fmt.Errorf("%w: profile %d references table %d (%d tables)", persist.ErrCorrupt, i, a.table, numTables)
		}
	}
	return r.Err()
}

// encodeProfile writes attribute id's record as the profile it holds:
// signatures as their SecSigs positions, and an ESig only when it has
// one.
func (e *Engine) encodeProfile(b *persist.Buffer, id int, pos []uint32, mark uint8) {
	a := &e.attrs[id]
	b.Uvarint(uint64(a.table))
	b.Uvarint(uint64(a.column))
	b.VStr(a.name)
	b.Bool(a.is(attrNumeric))
	b.Bool(a.is(attrSubject))
	b.Uvarint(uint64(pos[a.q]))
	b.Uvarint(uint64(pos[a.t]))
	b.Uvarint(uint64(a.tSize))
	b.Uvarint(uint64(pos[a.r]))
	b.VU64s(e.esig(id))
	b.Bool(a.is(attrEZero))
	appendExtent(b, a.extent, mark)
}

// decodeIDs reads a table's attribute list.
func decodeIDs(r *persist.Reader) []int {
	n := r.VCount(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.Uvarint())
	}
	return out
}

// decodeProfile reads one profile into the next record, taking a
// reference to each of its signatures, which it holds as positions in
// the table SecSigs loaded, and reading its ESig into its embeds slot. A
// record's table id, column and tset size must fit its int32 fields, and
// an ESig is a whole slot or absent.
func (e *Engine) decodeProfile(r *persist.Reader) error {
	tid, col := r.Uvarint(), r.Uvarint()
	a := attr{name: r.VStr()}
	a.flags = flagIf(r.Bool(), attrNumeric) | flagIf(r.Bool(), attrSubject)
	q, t, tSize, rp := r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	n, w := len(e.embeds), e.embedWords()
	e.embeds = r.AppendVU64s(e.embeds)
	a.flags |= flagIf(len(e.embeds) > n, attrEmbedded) | flagIf(r.Bool(), attrEZero)
	var err error
	if a.extent, err = decodeExtent(r); err != nil {
		return err
	}
	if max(tid, col, tSize) > math.MaxInt32 || (len(e.embeds) != n && len(e.embeds) != n+w) {
		return fmt.Errorf("%w: profile %d: table %d, column %d, tset size %d, %d-word embedding",
			persist.ErrCorrupt, len(e.attrs), tid, col, tSize, len(e.embeds)-n)
	}
	if len(e.embeds) == n {
		e.embeds = append(e.embeds, make([]uint64, w)...)
	}
	a.table, a.column, a.tSize = int32(tid), int32(col), int32(tSize)
	if err := e.sigs.refer(&a, q, t, rp); err != nil {
		return err
	}
	assertSortedExtent(a.extent, a.name, "decodeProfile")
	e.attrs = append(e.attrs, a)
	return r.Err()
}
