package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"d3l/internal/lsh"
	"d3l/internal/minhash"
	"d3l/internal/mlearn"
	"d3l/internal/persist"
	"d3l/internal/subject"
	"d3l/internal/table"
)

// This file implements engine snapshots: the build-once / serve-many
// path. A snapshot captures what the indexing phase produced that a
// replica cannot derive — options, lake metadata, the table of distinct
// MinHash signatures and the attribute profiles (with the tombstone set)
// — so a serving replica cold-starts by deserialising instead of
// re-profiling the lake. What is a function of those is rebuilt at load
// time rather than stored: the hash machinery (MinHash families,
// random-projection planes, the embedding model) from Options.Seed, and
// the four LSH forests from the profiles' signatures, through the
// indexLive every build runs. The subject classifier's coefficients are
// stored, so a replica profiles targets with exactly the classifier the
// snapshot was built with even if the shipped default changes.

// AppendSnapshot encodes the engine's sections into enc; the public d3l
// package appends the SA-join graph after them and writes the result.
// It first reserves room for all of it — its own sections plus the
// extra bytes the caller will append after them — so the snapshot is
// laid down in one allocation. The read lock is held across the whole
// encode, so the sections are mutually consistent under concurrent
// mutations.
func (e *Engine) AppendSnapshot(enc *persist.Encoder, extra int) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	pos, order := e.sigPositions()
	enc.Grow(e.snapshotSizeBound(order) + extra)

	e.encodeOptions(enc.Begin(persist.SecOptions))
	enc.End()

	e.lake.EncodeMeta(enc.Begin(persist.SecLake))
	enc.End()

	sb := enc.Begin(persist.SecSigs)
	sb.U32(uint32(len(order)))
	for _, id := range order {
		sb.U32s(e.sigs.sigs[id])
	}
	enc.End()

	e.encodeAttrs(enc.Begin(persist.SecAttrs), pos)
	enc.End()
	return nil
}

// sigPositions numbers the signatures the profiles hold in the order
// they first use them (by attribute id; Q, then T, then R), from 1 so
// that 0 stays a nil signature: pos maps an engine id to its position in
// SecSigs, and order lists the engine ids by position. The file carries
// positions, not engine ids, so it is a function of the profiles alone,
// never of which ids the table's free list handed out. Caller holds e.mu.
func (e *Engine) sigPositions() (pos []uint32, order []int32) {
	pos = make([]uint32, len(e.sigs.sigs))
	for i := range e.profiles {
		p := &e.profiles[i]
		for _, id := range [3]int32{p.qID, p.tID, p.rID} {
			if id != 0 && pos[id] == 0 {
				order = append(order, id)
				pos[id] = uint32(len(order))
			}
		}
	}
	return pos, order
}

// Encoded sizes of the sections' fixed-width fields.
const (
	// optionsEnc bounds SecOptions: eleven 8-byte fields, a bool, three
	// counted slices of at most NumEvidence / FeatureCount values.
	optionsEnc = 11*8 + 1 + 3*4 + 8*(2*int(NumEvidence)+subject.FeatureCount)
	// profileFixedEnc is encodeProfile less the bytes of its name, its
	// embedding signature and its extent: 3 I64s, 3 signature positions,
	// 3 counts, 3 bools.
	profileFixedEnc = 3*8 + 3*4 + 3*4 + 3
)

// snapshotSizeBound is an upper bound on the bytes AppendSnapshot lays
// down, given the signature table sigPositions ordered: exact but for
// SecOptions' slack and a few bytes per tombstoned table. It counts each
// signature once, as the file holds it, where indexSpaceBytes (Table
// II's measure) counts it once per profile field. Caller holds e.mu.
func (e *Engine) snapshotSizeBound(order []int32) int {
	n := 4*persist.SectionOverhead + optionsEnc
	// SecLake: a liveness byte, a counted name and a column count per
	// table, a counted name and a type byte per column.
	n += 4
	for _, t := range e.lake.Tables() {
		n += 1 + 4 + len(t.Name) + 4
		for _, c := range t.Columns {
			n += 4 + len(c.Name) + 1
		}
	}
	// SecSigs: a count, then each signature, counted.
	n += 4
	for _, id := range order {
		n += 4 + 4*len(e.sigs.sigs[id])
	}
	// SecAttrs: the profiles, then per table a counted attribute list, the
	// subject attribute and the liveness byte.
	n += 4 + len(e.profiles)*profileFixedEnc
	for i := range e.profiles {
		p := &e.profiles[i]
		n += len(p.Name) + 8*len(p.ESig) + 8*len(p.NumExtent)
	}
	n += 4 + len(e.byTable)*minTableEnc
	for _, attrs := range e.byTable {
		n += 8 * len(attrs)
	}
	return n
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
// rebuilds its forests from the profiles. It reads the decoder's
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
	}
	if dec.Version() >= 3 {
		rs, err := dec.MustSection(persist.SecSigs)
		if err != nil {
			return nil, err
		}
		if err := e.sigs.load(rs); err != nil {
			return nil, fmt.Errorf("core: snapshot signatures: %w", err)
		}
	}
	ra, err := dec.MustSection(persist.SecAttrs)
	if err != nil {
		return nil, err
	}
	if err := e.decodeAttrs(ra, dec.Version()); err != nil {
		return nil, fmt.Errorf("core: snapshot attributes: %w", err)
	}
	if len(e.byTable) != lake.Len() {
		return nil, fmt.Errorf("%w: %d attribute table slots for %d lake tables",
			persist.ErrCorrupt, len(e.byTable), lake.Len())
	}

	// The forests are a function of the profiles, so they are rebuilt, not
	// read: a version 2 or 3 snapshot's SecForests is never opened.
	start := time.Now()
	if e.forests, err = e.indexLive(); err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	e.buildTimings.Index = time.Since(start)
	e.fpBase = e.fingerprintBase()
	e.assertSigTable("DecodeEngine")
	return e, nil
}

// encodeOptions writes the full engine configuration plus the resolved
// subject classifier coefficients. Field order is part of the format.
func (e *Engine) encodeOptions(b *persist.Buffer) {
	o := e.opts
	b.I64(int64(o.MinHashSize))
	b.F64(o.Threshold)
	b.I64(int64(o.QGramQ))
	b.I64(int64(o.ForestTrees))
	b.I64(int64(o.ForestHashes))
	b.I64(int64(o.EmbedBits))
	b.U64(o.Seed)
	b.F64s(o.Weights[:])
	m := e.classifier.Model()
	b.F64s(m.Weights)
	b.F64(m.Bias)
	b.I64(int64(o.MaxExtentSample))
	b.I64(int64(o.CandidateBudget))
	disabled := make([]uint64, 0, NumEvidence)
	for t, d := range o.Disabled {
		if d {
			disabled = append(disabled, uint64(t))
		}
	}
	b.U64s(disabled)
	b.Bool(o.UniformEq1Weights)
	b.I64(int64(o.Parallelism))
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
	w := r.F64s()
	cw := r.F64s()
	bias := r.F64()
	o.MaxExtentSample = int(r.I64())
	o.CandidateBudget = int(r.I64())
	disabled := r.U64s()
	o.UniformEq1Weights = r.Bool()
	o.Parallelism = int(r.I64())
	if err := r.Err(); err != nil {
		return o, err
	}
	if o.MinHashSize > maxSnapshotSketchWidth || o.EmbedBits > maxSnapshotSketchWidth {
		return o, fmt.Errorf("%w: MinHashSize %d, EmbedBits %d", persist.ErrCorrupt, o.MinHashSize, o.EmbedBits)
	}
	if len(w) != int(NumEvidence) {
		return o, fmt.Errorf("%w: %d evidence weights", persist.ErrCorrupt, len(w))
	}
	copy(o.Weights[:], w)
	cls, err := subject.FromModel(&mlearn.LogisticModel{Weights: cw, Bias: bias})
	if err != nil {
		return o, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	o.Subject = cls
	for _, t := range disabled {
		if t >= uint64(NumEvidence) {
			return o, fmt.Errorf("%w: disabled evidence %d", persist.ErrCorrupt, t)
		}
		o.Disabled[t] = true
	}
	return o, nil
}

// encodeAttrs writes the profile store and the per-table indexes; pos
// maps a signature's engine id to its position in SecSigs. Tombstoned
// attributes are already metadata-only stubs (Remove releases their
// payloads), so snapshots do not grow with mutation churn beyond a name
// per dead attribute.
func (e *Engine) encodeAttrs(b *persist.Buffer, pos []uint32) {
	b.U32(uint32(len(e.profiles)))
	for i := range e.profiles {
		encodeProfile(b, &e.profiles[i], pos)
	}
	b.U32(uint32(len(e.byTable)))
	for tid := range e.byTable {
		b.Ints(e.byTable[tid])
		b.I64(int64(e.subjects[tid]))
		b.Bool(e.alive[tid])
	}
}

// Minimum encoded sizes, used to bound up-front allocations against a
// crafted snapshot that declares huge counts: a valid CRC proves
// nothing about intent, and the declared count must be achievable
// within the bytes that actually follow.
const (
	// minProfileEnc: 3×I64 + 3 signatures (positions, or before version 3
	// slice counts) + 2 slice counts + 3 bools + 1 string count.
	minProfileEnc = 3*8 + 5*4 + 3 + 4
	// minTableEnc: attr-list count + subject I64 + alive bool.
	minTableEnc = 4 + 8 + 1
)

func (e *Engine) decodeAttrs(r *persist.Reader, version uint32) error {
	numProfiles := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if numProfiles < 0 || numProfiles > r.Remaining()/minProfileEnc {
		return fmt.Errorf("%w: %d profiles declared in %d bytes", persist.ErrCorrupt, numProfiles, r.Remaining())
	}
	e.profiles = make([]Profile, numProfiles)
	var scratch minhash.Signature
	for i := range e.profiles {
		if err := e.decodeProfile(r, &e.profiles[i], version, &scratch); err != nil {
			return err
		}
	}
	if version >= 3 {
		if err := e.sigs.allHeld(); err != nil {
			return err
		}
	}
	numTables := int(r.U32())
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
		e.byTable[tid] = r.Ints()
		e.subjects[tid] = int(r.I64())
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
	// Profile table ids index e.subjects and e.byTable at query time,
	// so they are validated against the table count even though the
	// checksum makes a mismatch unreachable from honest writers.
	for i := range e.profiles {
		ref := e.profiles[i].Ref
		if ref.TableID < 0 || ref.TableID >= numTables || ref.Column < 0 {
			return fmt.Errorf("%w: profile %d references table %d column %d (%d tables)",
				persist.ErrCorrupt, i, ref.TableID, ref.Column, numTables)
		}
	}
	return r.Err()
}

func encodeProfile(b *persist.Buffer, p *Profile, pos []uint32) {
	b.I64(int64(p.Ref.TableID))
	b.I64(int64(p.Ref.Column))
	b.Str(p.Name)
	b.Bool(p.Numeric)
	b.Bool(p.Subject)
	b.U32(pos[p.qID])
	b.U32(pos[p.tID])
	b.I64(int64(p.TSize))
	b.U32(pos[p.rID])
	b.U64s(p.ESig)
	b.Bool(p.EZero)
	b.F64s(p.NumExtent)
}

// decodeProfile reads one profile and takes a reference to each of its
// signatures in the engine's table. From version 3 on a signature is a
// position in the table SecSigs loaded; in version 2, it is the signature
// itself, read into scratch and interned (copied only when the table
// does not hold its value yet, so the file's repeats are never
// allocated).
func (e *Engine) decodeProfile(r *persist.Reader, p *Profile, version uint32, scratch *minhash.Signature) error {
	p.Ref.TableID = int(r.I64())
	p.Ref.Column = int(r.I64())
	p.Name = r.Str()
	p.Numeric = r.Bool()
	p.Subject = r.Bool()
	if version >= 3 {
		q, t := r.U32(), r.U32()
		p.TSize = int(r.I64())
		if err := e.sigs.refer(p, q, t, r.U32()); err != nil {
			return err
		}
	} else {
		*scratch = r.U32s(*scratch)
		p.QSig, p.qID = e.sigs.intern(*scratch, true)
		*scratch = r.U32s(*scratch)
		p.TSig, p.tID = e.sigs.intern(*scratch, true)
		p.TSize = int(r.I64())
		*scratch = r.U32s(*scratch)
		p.RSig, p.rID = e.sigs.intern(*scratch, true)
	}
	p.ESig = lsh.BitSignature(r.U64s())
	p.EZero = r.Bool()
	p.NumExtent = r.F64s()
	// Re-establish the Profile.NumExtent sorted-ascending invariant:
	// snapshots written before the invariant existed carry extents in
	// lake order, and the allocation-free KS path depends on it. For
	// current snapshots (already sorted) this is a linear no-op scan.
	if !sort.Float64sAreSorted(p.NumExtent) {
		sort.Float64s(p.NumExtent)
	}
	assertSortedExtent(p, "decodeProfile")
	return r.Err()
}
