package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"d3l/internal/lsh"
	"d3l/internal/subject"
	"d3l/internal/table"
)

// Engine is an indexed data lake: the four LSH indexes I_N, I_V, I_F,
// I_E of Algorithm 1 over per-attribute profiles, ready for top-k
// relatedness queries.
//
// An Engine is safe for concurrent use: queries (SearchSpec,
// ExplainSpec, the lookup helpers) hold a read lock and run
// concurrently with each other, while mutations (Add, Update, Remove)
// take the write lock and serialise against queries. The embedded Lake
// must only be mutated through the Engine once queries may be in flight.
type Engine struct {
	opts       Options
	lake       *table.Lake
	prof       *profiler
	classifier *subject.Classifier

	// mu guards every field below it plus the lake contents. Queries
	// take it in read mode, mutations in write mode.
	mu sync.RWMutex

	profiles []Profile // attribute id -> profile
	byTable  [][]int   // table id -> attribute ids
	subjects []int     // table id -> subject attribute id (-1 if none)
	alive    []bool    // table id -> still indexed (false after Remove)
	// sigs holds the one copy of every distinct MinHash signature the
	// profiles point at (see sigtable.go).
	sigs sigTable

	// fpBase and version back Fingerprint: fpBase is hashed once at
	// build/load time (immutable afterwards), version counts mutations
	// atomically so Fingerprint never takes mu (see fingerprint.go).
	fpBase  uint64
	version atomic.Uint64

	// queryScratchPool and workerScratchPool recycle the query-side
	// arenas (see scratch.go); the zero Pool is ready, so neither
	// BuildEngine nor the snapshot decoder initialises them.
	queryScratchPool  sync.Pool // *queryScratch
	workerScratchPool sync.Pool // *workerScratch

	// plans holds one prepared plan per evidence mask, filled on the
	// mask's first use (see plan.go); planStats accumulates the
	// engine-lifetime planner counters. Both are zero-value-ready, like
	// the pools.
	plans     [1 << NumEvidence]atomic.Pointer[preparedPlan]
	planStats plannerCounters

	// stageObs, when set, receives per-stage wall times of every
	// ranking query (see stages.go). nil — the default, and the state
	// of every freshly built or decoded engine — keeps the pipeline
	// free of clock reads entirely.
	stageObs atomic.Pointer[StageObserver]

	// forests are I_N, I_V, I_F and I_E, in slot order (see forestSigs
	// for which attributes each one holds).
	forests [numForestSlots]*lsh.Forest

	// buildTimings is where BuildEngine's time went; on an engine decoded
	// from a snapshot, Index is the time its forests took to rebuild.
	buildTimings BuildTimings
}

// BuildTimings splits the wall time of BuildEngine into its two phases:
// profiling every table (Algorithm 1's signatures, in parallel) and
// indexing (inserting them into the four forests and sorting the trees).
type BuildTimings struct {
	Profile, Index time.Duration
}

// BuildTimings reports where this engine's BuildEngine call spent its
// time (`d3l index build` prints it), or for a decoded engine how long
// its forests took to rebuild (`d3l index info` prints that).
func (e *Engine) BuildTimings() BuildTimings { return e.buildTimings }

// BuildEngine profiles and indexes every attribute of the lake.
// This is the paper's indexing phase (Experiment 4 measures it).
func BuildEngine(lake *table.Lake, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if lake == nil {
		return nil, fmt.Errorf("core: nil lake")
	}
	prof, err := newProfiler(opts)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:       opts,
		lake:       lake,
		prof:       prof,
		classifier: opts.subjectClassifier(),
		byTable:    make([][]int, lake.Len()),
		subjects:   make([]int, lake.Len()),
		alive:      make([]bool, lake.Len()),
	}

	// Profiling dominates indexing cost (the paper's Experiment 4
	// observation), and per-table profiles are independent, so they are
	// computed by a worker pool; insertion into the forests stays
	// sequential and in table order, keeping the build deterministic.
	start := time.Now()
	tableProfiles := prof.profileTables(lake.Tables(), e.classifier, opts.Parallelism)
	e.buildTimings.Profile = time.Since(start)
	for tid, profiles := range tableProfiles {
		e.subjects[tid] = -1
		e.alive[tid] = true
		for i := range profiles {
			attrID := len(e.profiles)
			e.profiles = append(e.profiles, profiles[i])
			e.sigs.hold(&e.profiles[attrID])
			e.byTable[tid] = append(e.byTable[tid], attrID)
			if profiles[i].Subject {
				e.subjects[tid] = attrID
			}
		}
	}
	if e.forests, err = e.indexLive(); err != nil {
		return nil, err
	}
	e.buildTimings.Index = time.Since(start) - e.buildTimings.Profile
	e.fpBase = e.fingerprintBase()
	e.assertSigTable("BuildEngine")
	return e, nil
}

// indexLive builds the four forests afresh over the live attributes, in
// (table id, attribute id) order. BuildEngine, Compact and DecodeEngine
// all index through it, so a compacted or loaded engine's trees are
// identical to those of a fresh build over the surviving tables. Each
// forest's ids are counted before they are listed, and lsh.Forest.Build
// sorts them reading every key straight from the profiles' signatures:
// nothing is allocated that the forests do not keep. Caller holds e.mu or
// owns the engine.
func (e *Engine) indexLive() ([numForestSlots]*lsh.Forest, error) {
	live := func(fn func(attrID int32, in [numForestSlots]bool)) {
		for tid, attrs := range e.byTable {
			if e.alive[tid] {
				for _, attrID := range attrs {
					fn(int32(attrID), placed(&e.profiles[attrID]))
				}
			}
		}
	}
	var counts [numForestSlots]int
	live(func(_ int32, in [numForestSlots]bool) {
		for slot := range in {
			if in[slot] {
				counts[slot]++
			}
		}
	})
	var ids [numForestSlots][]int32
	for slot := range ids {
		ids[slot] = make([]int32, 0, counts[slot])
	}
	live(func(attrID int32, in [numForestSlots]bool) {
		for slot := range in {
			if in[slot] {
				ids[slot] = append(ids[slot], attrID)
			}
		}
	})
	p := e.profiles
	keys := [numForestSlots]lsh.Keys{
		lsh.SigKeys(func(id int32) []uint32 { return p[id].QSig }),
		lsh.SigKeys(func(id int32) []uint32 { return p[id].TSig }),
		lsh.SigKeys(func(id int32) []uint32 { return p[id].RSig }),
		lsh.BitKeys(func(id int32) lsh.BitSignature { return p[id].ESig }),
	}
	forests := newForests(e.opts)
	var errs [numForestSlots]error
	forEachIndex(numForestSlots, e.opts.Parallelism, func(slot int) {
		if err := forests[slot].Build(ids[slot], keys[slot]); err != nil {
			errs[slot] = fmt.Errorf("forest I_%v: %w", slotEvidence[slot], err)
		}
	})
	return forests, errors.Join(errs[:]...)
}

// Forest slots: the four LSH indexes of Algorithm 1, in the order
// Engine.forests holds them and a snapshot stores them.
const (
	forestSlotN = iota
	forestSlotV
	forestSlotF
	forestSlotE
	numForestSlots
)

// slotEvidence is the evidence type each forest slot serves.
var slotEvidence = [numForestSlots]Evidence{EvidenceName, EvidenceValue, EvidenceFormat, EvidenceEmbedding}

// newForests returns the four empty forests in slot order: I_N, I_V and
// I_F laid out as opts says, I_E by embedForestLayout.
func newForests(opts Options) [numForestSlots]*lsh.Forest {
	var forests [numForestSlots]*lsh.Forest
	for slot := range forests {
		forests[slot] = lsh.MustForest(opts.ForestTrees, opts.ForestHashes)
	}
	forests[forestSlotE] = lsh.MustForest(embedForestLayout(opts.EmbedBits))
	return forests
}

// placed is the placement rule of Section III-C, the one place it is
// written: per forest slot, whether p is indexed (and probed) there.
// Every attribute goes into I_N and I_F; numeric attributes skip I_V and
// I_E, and attributes with no embeddable content skip I_E. A stub, whose
// signatures are released, is in none.
func placed(p *Profile) [numForestSlots]bool {
	text := !p.Numeric
	return [numForestSlots]bool{
		forestSlotN: p.QSig != nil,
		forestSlotV: text && p.TSig != nil,
		forestSlotF: p.RSig != nil,
		forestSlotE: text && !p.EZero,
	}
}

// forestSigs is, per forest slot, the signature p is indexed (and probed)
// under, or nil where placed keeps p out. The embedding signature is
// expanded into *evals, which is grown as needed and valid until the
// next call with it.
func forestSigs(p *Profile, evals *[]uint32) [numForestSlots][]uint32 {
	in := placed(p)
	var sigs [numForestSlots][]uint32
	for slot, sig := range [...][]uint32{forestSlotN: p.QSig, forestSlotV: p.TSig, forestSlotF: p.RSig} {
		if in[slot] {
			sigs[slot] = sig
		}
	}
	if in[forestSlotE] {
		*evals = p.ESig.HashValuesInto((*evals)[:0])
		sigs[forestSlotE] = *evals
	}
	return sigs
}

// writeKeys inserts one attribute's keys into forests — or, with del,
// deletes them — in slot order under the placement rule, touching only
// the first slots slots. It stops at the first failure and returns the
// slot it failed at (slots when none did), so that the same call with
// !del and that count undoes exactly what was written.
func writeKeys(forests *[numForestSlots]*lsh.Forest, attrID int, p *Profile, del bool, slots int, evals *[]uint32) (int, error) {
	sigs := forestSigs(p, evals)
	for slot := 0; slot < slots; slot++ {
		var err error
		switch {
		case sigs[slot] == nil:
		case del:
			_, err = forests[slot].Delete(int32(attrID), sigs[slot])
		default:
			err = forests[slot].Insert(int32(attrID), sigs[slot])
		}
		if err != nil {
			return slot, err
		}
	}
	return slots, nil
}

// embedForestLayout derives a forest layout for the byte-wide hash
// values of an EmbedBits-bit signature (EmbedBits/8 values).
func embedForestLayout(embedBits int) (trees, hashes int) {
	vals := embedBits / 8
	trees = 4
	for trees > 1 && vals%trees != 0 {
		trees--
	}
	return trees, vals / trees
}

// Lake returns the indexed lake. Once queries may be running
// concurrently, change it only through Engine.Add, Update and Remove,
// and read it through the locked accessors (LakeLen, HasTable,
// TableNameByID, TableNames).
func (e *Engine) Lake() *table.Lake { return e.lake }

// NumAttributes reports the number of indexed attributes, including
// tombstoned attributes of removed tables (attribute ids are stable).
func (e *Engine) NumAttributes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.profiles)
}

// Profile returns the profile of an attribute id. Profiles of live
// attributes are immutable, but Remove clears the payload of its
// table's profiles in place (under the write lock), so callers that
// retain the returned pointer beyond this call must serialise with
// mutations externally — as d3l.Engine does for the join-graph
// builders, the one code path that holds profiles across accessor
// calls.
func (e *Engine) Profile(attrID int) *Profile {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &e.profiles[attrID]
}

// SubjectAttr returns the subject attribute id of a table and whether
// one exists.
func (e *Engine) SubjectAttr(tableID int) (int, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := e.subjects[tableID]
	return s, s >= 0
}

// AliveTable reports whether a table id is still indexed (false after
// Remove). Ids of removed tables remain valid for Lake lookups but no
// longer produce candidates.
func (e *Engine) AliveTable(tableID int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return tableID >= 0 && tableID < len(e.alive) && e.alive[tableID]
}

// ProfileTarget profiles a table outside the lake through the same
// Algorithm 1 code path (table id -1 marks it as external).
func (e *Engine) ProfileTarget(t *table.Table) []Profile {
	return e.prof.ProfileTable(-1, t, e.classifier)
}

// ProfileTables is ProfileTarget for many tables at once — what a shard
// set build does with a whole lake before handing each table to its
// owner — on the engine's Parallelism workers, through the bulk path
// BuildEngine itself profiles with. Slot i holds tables[i]'s profiles.
func (e *Engine) ProfileTables(tables []*table.Table) [][]Profile {
	return e.prof.profileTables(tables, e.classifier, e.queryParallelism())
}

// IndexSpaceBytes reports the encoded size of the four forests
// (lsh.Forest.SpaceBytes) plus the profile store — the numerator of the
// Table II space overhead, not the memory the engine holds.
func (e *Engine) IndexSpaceBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexSpaceBytes()
}

// ForestShapes reports, per forest in slot order, tree 0's live entries
// and the distinct keys they sit under (lsh.Forest.Shape).
func (e *Engine) ForestShapes() (entries, keys [numForestSlots]int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, f := range e.forests {
		entries[i], keys[i] = f.Shape()
	}
	return entries, keys
}

// indexSpaceBytes is IndexSpaceBytes for callers holding e.mu.
func (e *Engine) indexSpaceBytes() int64 {
	var total int64
	for _, f := range e.forests {
		total += f.SpaceBytes()
	}
	for i := range e.profiles {
		total += e.profiles[i].SpaceBytes()
	}
	return total
}
