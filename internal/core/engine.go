package core

import (
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
// BatchSearchSpec, Explain, the lookup helpers) hold a read lock and run
// concurrently with each other, while mutations (Add, Remove) take the
// write lock and serialise against queries. The embedded Lake must only
// be mutated through the Engine once queries may be in flight.
type Engine struct {
	opts       Options
	lake       *table.Lake
	prof       *profiler
	classifier *subject.Classifier

	// mu guards every field below it plus the lake contents. Queries
	// take it in read mode, Add/Remove in write mode.
	mu sync.RWMutex

	profiles []Profile // attribute id -> profile
	byTable  [][]int   // table id -> attribute ids
	subjects []int     // table id -> subject attribute id (-1 if none)
	alive    []bool    // table id -> still indexed (false after Remove)

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

	// planCache holds prepared query plans (see plan.go); planStats
	// accumulates the engine-lifetime planner counters. Both are
	// zero-value-ready, like the pools.
	planCache planCache
	planStats plannerCounters

	// stageObs, when set, receives per-stage wall times of every
	// ranking query (see stages.go). nil — the default, and the state
	// of every freshly built or decoded engine — keeps the pipeline
	// free of clock reads entirely.
	stageObs atomic.Pointer[StageObserver]

	forestN *lsh.Forest
	forestV *lsh.Forest
	forestF *lsh.Forest
	forestE *lsh.Forest

	// buildTimings is where BuildEngine's time went; zero on an engine
	// that was decoded from a snapshot.
	buildTimings BuildTimings
}

// BuildTimings splits the wall time of BuildEngine into its two phases:
// profiling every table (Algorithm 1's signatures, in parallel) and
// indexing (inserting them into the four forests and sorting the trees).
type BuildTimings struct {
	Profile, Index time.Duration
}

// BuildTimings reports where this engine's BuildEngine call spent its
// time (`d3l index build` prints it).
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
	e.forestN = lsh.MustForest(opts.ForestTrees, opts.ForestHashes)
	e.forestV = lsh.MustForest(opts.ForestTrees, opts.ForestHashes)
	e.forestF = lsh.MustForest(opts.ForestTrees, opts.ForestHashes)
	eTrees, eHashes := embedForestLayout(opts.EmbedBits)
	e.forestE = lsh.MustForest(eTrees, eHashes)

	// Profiling dominates indexing cost (the paper's Experiment 4
	// observation), and per-table profiles are independent, so they are
	// computed by a worker pool; insertion into the forests stays
	// sequential and in table order, keeping the build deterministic.
	start := time.Now()
	tableProfiles := prof.profileTables(lake.Tables(), e.classifier, opts.Parallelism)
	e.buildTimings.Profile = time.Since(start)
	for tid := range lake.Tables() {
		e.subjects[tid] = -1
		e.alive[tid] = true
		profiles := tableProfiles[tid]
		for i := range profiles {
			attrID := len(e.profiles)
			e.profiles = append(e.profiles, profiles[i])
			e.byTable[tid] = append(e.byTable[tid], attrID)
			if profiles[i].Subject {
				e.subjects[tid] = attrID
			}
			if err := e.insertForests(attrID, &e.profiles[attrID]); err != nil {
				return nil, err
			}
		}
	}
	forests := [...]*lsh.Forest{e.forestN, e.forestV, e.forestF, e.forestE}
	forEachIndex(len(forests), opts.Parallelism, func(i int) { forests[i].Index() })
	e.buildTimings.Index = time.Since(start) - e.buildTimings.Profile
	e.fpBase = e.fingerprintBase()
	return e, nil
}

// insertForests places one attribute's signatures into the four
// forests under the Section III-C placement rules. It serves both the
// build phase (forests not yet indexed) and incremental Add (sorted
// insertion).
func (e *Engine) insertForests(attrID int, p *Profile) error {
	return insertInto(e.forestN, e.forestV, e.forestF, e.forestE, attrID, p)
}

// insertInto places one attribute's signatures into an explicit forest
// quadruple under the Section III-C placement rules: numeric attributes
// are not inserted into I_V or I_E, and attributes with no embeddable
// content skip I_E. Compact builds replacement forests through the same
// rules the engine's own forests were built with.
func insertInto(fN, fV, fF, fE *lsh.Forest, attrID int, p *Profile) error {
	if err := fN.Insert(int32(attrID), p.QSig); err != nil {
		return err
	}
	if err := fF.Insert(int32(attrID), p.RSig); err != nil {
		return err
	}
	if !p.Numeric {
		if err := fV.Insert(int32(attrID), p.TSig); err != nil {
			return err
		}
		if !p.EZero {
			if err := fE.Insert(int32(attrID), p.ESig.HashValues()); err != nil {
				return err
			}
		}
	}
	return nil
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

// Options returns the engine configuration. (Parallelism is the one
// field mutable after build — see SetParallelism — hence the lock.)
func (e *Engine) Options() Options {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.opts
}

// Lake returns the indexed lake. Mutate it only through Engine.Add and
// Engine.Remove once queries may be running concurrently.
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

// TableAttrs returns the attribute ids of a table.
func (e *Engine) TableAttrs(tableID int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.byTable[tableID]
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

// IndexSpaceBytes reports the total size of the four forests plus the
// profile store — the numerator of the Table II space overhead.
func (e *Engine) IndexSpaceBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexSpaceBytes()
}

// indexSpaceBytes is IndexSpaceBytes for callers holding e.mu.
func (e *Engine) indexSpaceBytes() int64 {
	total := e.forestN.SpaceBytes() + e.forestV.SpaceBytes() + e.forestF.SpaceBytes() + e.forestE.SpaceBytes()
	for i := range e.profiles {
		total += e.profiles[i].SpaceBytes()
	}
	return total
}

// membershipDepth converts the similarity threshold τ into a forest
// prefix depth: a candidate agreeing on ~τ of hash values agrees on a
// geometric prefix of expected length τ·hashesPerTree; we floor at 2 to
// keep lookups selective.
func membershipDepth(threshold float64, hashesPerTree int) int {
	d := int(threshold * float64(hashesPerTree))
	if d < 2 {
		d = 2
	}
	if d > hashesPerTree {
		d = hashesPerTree
	}
	return d
}
