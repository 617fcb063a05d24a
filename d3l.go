// Package d3l is a Go implementation of D3L — Dataset Discovery in Data
// Lakes (Bogatu, Fernandes, Paton, Konstantinou; ICDE 2020).
//
// Given a data lake (a collection of tables with no metadata beyond
// attribute names and domain-independent types) and a target table,
// D3L returns the k most related tables, where relatedness combines
// five evidence types — attribute-name q-grams, value tokens, value
// formats, word embeddings and numeric domain distributions — each
// mapped into a uniform distance space through LSH indexes, aggregated
// with a distribution-aware weighting scheme, and optionally extended
// through subject-attribute join paths that raise target coverage.
//
// Quick start:
//
//	lake := d3l.NewLake()
//	lake.Add(someTable)                     // or d3l.LoadLakeDir("csvdir")
//	engine, err := d3l.New(lake, d3l.DefaultOptions())
//	ans, err := engine.Query(ctx, target)   // top-10 by default
//	ans, err = engine.Query(ctx, target,
//		d3l.WithK(10), d3l.WithJoins(),     // D3L+J augmentation
//		d3l.WithEvidence(d3l.EvidenceName, d3l.EvidenceValue))
//
// Query is the one, context-first entry point: a single parameterised
// call covering ranking, join augmentation and explanation, with
// cooperative cancellation end-to-end. QueryBatch runs it over many
// targets on one worker pool.
//
// The engine serves queries concurrently and the lake is mutable after
// indexing:
//
//	batch, err := engine.QueryBatch(ctx, targets) // many queries, one pool
//	id, err := engine.Add(newTable)               // incremental indexing
//	err = engine.Remove("stale_table")            // incremental deletion
//
// See the examples directory for runnable programs and DESIGN.md for
// the mapping between this library and the paper.
package d3l

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"d3l/internal/core"
	"d3l/internal/joins"
	"d3l/internal/persist"
	"d3l/internal/table"
)

// Re-exported data-model types. They are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Table is a named dataset with typed columns.
	Table = table.Table
	// Column is a named attribute with its extent and inferred type.
	Column = table.Column
	// Lake is an in-memory collection of tables.
	Lake = table.Lake
	// Options configure an Engine; use DefaultOptions as the base.
	Options = core.Options
	// Weights are the learned Eq. 3 evidence weights.
	Weights = core.Weights
	// Result is one ranked answer table with its distance vector and
	// per-column alignments.
	Result = core.TableResult
	// Alignment pairs a target column with a related answer column.
	Alignment = core.Alignment
	// DistanceVector carries the five per-evidence distances.
	DistanceVector = core.DistanceVector
	// PairExplanation is one row of a Table I-style distance breakdown.
	PairExplanation = core.PairExplanation
	// Augmented is a ranked answer extended with join paths and
	// coverage (Section IV, D3L+J).
	Augmented = joins.Augmented
	// JoinPath is a join path of table ids starting at a top-k table.
	JoinPath = joins.Path
	// Evidence identifies one of the five evidence types.
	Evidence = core.Evidence
	// PlanStats reports what the plan did for one query (see
	// Answer.Plan).
	PlanStats = core.PlanStats
	// PlannerTotals are the engine-lifetime planner counters (plan
	// hits/misses, pruning work elided) — see Engine.PlannerTotals.
	PlannerTotals = core.PlannerTotals
	// QueryStage identifies one timed region of the ranking pipeline —
	// see Engine.SetStageObserver and the stage constants.
	QueryStage = core.QueryStage
	// StageObserver receives per-stage wall times of ranking queries.
	StageObserver = core.StageObserver
	// UpdateStats reports what an in-place Update re-profiled, kept,
	// added and dropped — see Engine.Update.
	UpdateStats = core.UpdateStats
	// BuildTimings splits the wall time of New into profiling and
	// indexing — see Engine.BuildTimings.
	BuildTimings = core.BuildTimings
)

// Query pipeline stages, in execution order. Stage.String() yields the
// stable snake_case names the serving layer uses as metric labels.
const (
	StagePlanPrepare = core.StagePlanPrepare
	StageGather      = core.StageGather
	StageScore       = core.StageScore
	StageRankMerge   = core.StageRankMerge
	NumQueryStages   = core.NumQueryStages
)

// ErrTableNotFound reports a lookup of a lake table name that is not
// indexed (never added, or already removed). WithExplainFor queries
// and Remove wrap it, so callers — the HTTP serving layer answering
// 404, the CLI — distinguish a bad name from a real failure with
// errors.Is.
var ErrTableNotFound = core.ErrTableNotFound

// ErrDuplicateTable reports an Add of a table whose name is already
// in the lake; the HTTP serving layer maps it to 409.
var ErrDuplicateTable = table.ErrDuplicateName

// ErrInvalidTableName reports an Add of a table whose name cannot
// round-trip through the on-disk lake layout (empty, ".", "..", or
// containing a path separator or NUL); the HTTP serving layer maps it
// to 400.
var ErrInvalidTableName = table.ErrInvalidName

// Evidence type constants.
const (
	EvidenceName      = core.EvidenceName
	EvidenceValue     = core.EvidenceValue
	EvidenceFormat    = core.EvidenceFormat
	EvidenceEmbedding = core.EvidenceEmbedding
	EvidenceDomain    = core.EvidenceDomain
	NumEvidence       = core.NumEvidence
)

// NewLake returns an empty data lake.
func NewLake() *Lake { return table.NewLake() }

// NewTable assembles a table from column names and row-major string
// values; column types are inferred.
func NewTable(name string, columns []string, rows [][]string) (*Table, error) {
	return table.New(name, columns, rows)
}

// ReadCSVFile loads one CSV file as a table named after the file stem.
func ReadCSVFile(path string) (*Table, error) { return table.ReadCSVFile(path) }

// LoadLakeDir loads every *.csv under dir into a lake.
func LoadLakeDir(dir string) (*Lake, error) { return table.LoadLakeDir(dir) }

// SaveLakeDir writes every table of the lake as dir/<name>.csv.
func SaveLakeDir(l *Lake, dir string) error { return table.SaveLakeDir(l, dir) }

// DefaultOptions returns the paper-faithful configuration (MinHash 256,
// τ = 0.7, q = 4, LSH Forest 8×32).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultWeights returns the shipped Eq. 3 weights.
func DefaultWeights() Weights { return core.DefaultWeights() }

// Engine is an indexed data lake ready for discovery queries. Build it
// once with New. The engine is safe for concurrent use: queries (Query
// and QueryBatch) run concurrently with each other and with the
// incremental mutations Add, Update and Remove. The SA-join graph for
// WithJoins queries is built lazily on first use, reused across
// queries, and rebuilt after a mutation.
type Engine struct {
	core *core.Engine

	// mu serialises the join-graph code paths against mutations. The
	// graph builders and AugmentCtx hold *Profile pointers and read the
	// lake across many engine calls, which the core engine's per-call
	// locking cannot make atomic; mutations take this lock in write
	// mode, WithJoins queries, Save and JoinGraphEdges in read mode.
	// Plain queries rely on the core engine's own lock and skip this
	// one. Lock order is always mu before the core engine's internal
	// lock.
	mu sync.RWMutex

	graphMu sync.Mutex
	graph   *joins.Graph
}

// New profiles and indexes the lake (the paper's indexing phase).
func New(lake *Lake, opts Options) (*Engine, error) {
	e, err := core.BuildEngine(lake, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{core: e}, nil
}

// BuildTimings reports where New spent its time; on a loaded engine,
// Index is the time Load took to rebuild the four LSH indexes and
// Profile is zero.
func (e *Engine) BuildTimings() BuildTimings { return e.core.BuildTimings() }

// Add profiles and indexes a new table, returning its id. The table is
// immediately discoverable. Profiling — the expensive part — runs
// before any lock is taken, so in-flight queries (including join
// queries) are blocked only for the index splice itself.
func (e *Engine) Add(t *Table) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("d3l: nil table")
	}
	return e.AddProfiled(t, e.PrepareShardTarget(t), nil)
}

// Update re-indexes the named table in place with delta re-profiling:
// columns whose name, type and extent are unchanged keep their
// attribute ids, profiles and forest keys; changed and added columns
// are re-profiled and re-spliced; dropped columns leave the indexes.
// The table keeps its id, and the answer set afterwards is the same
// as after Remove followed by Add of the new contents — only cheaper.
// The table must exist (ErrTableNotFound otherwise); re-profiling —
// the expensive part — runs outside the core engine's lock, so
// in-flight queries are blocked only for the index splice. A lake
// loaded from a snapshot carries no extents to diff against, so the
// first Update of each table there falls back to a full re-profile.
func (e *Engine) Update(t *Table) (UpdateStats, error) {
	if t == nil {
		return UpdateStats{}, fmt.Errorf("d3l: nil table")
	}
	var stats UpdateStats
	err := e.mutate(func() (err error) {
		stats, err = e.core.Update(t)
		return err
	})
	return stats, err
}

// Remove deletes a table by name from every index, making it
// unreachable for subsequent queries. Ids of other tables are
// unaffected, and the name becomes free for a later Add.
func (e *Engine) Remove(name string) error {
	return e.mutate(func() error { return e.core.Remove(name) })
}

// mutate runs one core mutation under the mutation lock, so that no
// join-graph build or Save sees it half done, and drops the cached
// SA-join graph once it has landed.
func (e *Engine) mutate(op func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := op(); err != nil {
		return err
	}
	e.invalidateGraph()
	return nil
}

// invalidateGraph drops the cached SA-join graph after a mutation; the
// next WithJoins query rebuilds it over the current lake contents.
// Callers hold e.mu in write mode, so no build is in flight.
func (e *Engine) invalidateGraph() {
	e.graphMu.Lock()
	e.graph = nil
	e.graphMu.Unlock()
}

// cachedGraph returns the SA-join graph the engine holds, nil when no
// query has built it since New, Load or the last mutation.
func (e *Engine) cachedGraph() *joins.Graph {
	e.graphMu.Lock()
	defer e.graphMu.Unlock()
	return e.graph
}

// joinGraphCtx returns the cached SA-join graph, building it under ctx
// if needed; a cancelled build returns ctx.Err() and caches nothing.
// Callers hold e.mu in read mode, which excludes mutations for the
// duration; graphMu only arbitrates concurrent readers, so two of
// them may build duplicate graphs (wasted work, never incorrect —
// the first one wins the cache).
func (e *Engine) joinGraphCtx(ctx context.Context) (*joins.Graph, error) {
	if g := e.cachedGraph(); g != nil {
		return g, nil
	}
	built, err := joins.BuildGraphCtx(ctx, e.core)
	if err != nil {
		return nil, err
	}
	e.graphMu.Lock()
	defer e.graphMu.Unlock()
	if e.graph == nil {
		e.graph = built
	}
	return e.graph, nil
}

// Save writes a versioned, checksummed binary snapshot of the engine —
// attribute profiles, lake metadata, tombstone set, and the SA-join
// graph if the engine holds one — so serving replicas cold-start with
// Load instead of re-profiling the lake. The four LSH indexes are not
// in it: they are a function of the profiles, and Load rebuilds them. Save
// never builds the graph: call JoinGraphEdges first to put it in the
// snapshot (`d3l index build` does; shard snapshots, whose graphs no
// sharded topology reads, do not). Save holds the mutation lock in read
// mode: snapshots taken under concurrent Add/Remove traffic are
// consistent point-in-time images.
func Save(e *Engine, w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	enc, err := e.encodeSnapshot()
	if err != nil {
		return err
	}
	_, err = enc.WriteTo(w)
	return err
}

// SaveFile writes Save's snapshot to path without ever truncating what
// is there: the bytes go to path+".tmp" in the same directory, which is
// closed and only then renamed over path. A failed or killed write
// therefore leaves the previous snapshot — the file a serving replica
// reloads from — intact, and a failed one removes its temporary file.
func SaveFile(e *Engine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = Save(e, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// encodeSnapshot lays the engine's sections and the SA-join graph it
// holds, if any, down in one encoder, sized once for all of them.
// Caller holds e.mu.
func (e *Engine) encodeSnapshot() (*persist.Encoder, error) {
	g := e.cachedGraph()
	extra := 0
	if g != nil {
		extra = persist.SectionOverhead + g.EncodedSize()
	}
	enc := persist.NewEncoder()
	if err := e.core.AppendSnapshot(enc, extra); err != nil {
		return nil, err
	}
	if g != nil {
		g.Encode(enc.Begin(persist.SecJoinGraph))
		enc.End()
	}
	return enc, nil
}

// Load reconstructs an engine from a snapshot written by Save, and
// rebuilds the four LSH indexes from its profiles as New builds them.
// The loaded engine answers Query and QueryBatch identically to the
// engine the snapshot was taken from, and accepts Add/Remove from there
// on.
// Its lake carries metadata only (names, schemas, ids) — raw extents
// are not stored in snapshots, since queries are answered entirely from
// the indexed profiles. Corrupt, truncated or version-mismatched input
// fails with an error; it never panics. If the snapshot carries no join
// graph section, the graph is built lazily by the first WithJoins query,
// as after New.
func Load(r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(bytes.NewReader(data), int64(len(data)))
}

// LoadFile is Load of a snapshot file, decoded straight from the file:
// the checksum pass and every section stream through one fixed-size
// window, so the file's bytes are never resident beside the engine
// decoded from them.
func LoadFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return decode(f, st.Size())
}

// decode reconstructs an engine from the size-byte snapshot src holds.
func decode(src io.ReaderAt, size int64) (*Engine, error) {
	dec, err := persist.NewDecoder(src, size)
	if err != nil {
		return nil, err
	}
	ce, err := core.DecodeEngine(dec)
	if err != nil {
		return nil, err
	}
	eng := &Engine{core: ce}
	if gr, ok := dec.Section(persist.SecJoinGraph); ok {
		g, err := joins.DecodeGraph(gr, ce)
		if err != nil {
			return nil, err
		}
		eng.graph = g
	}
	return eng, nil
}

// SetParallelism re-bounds the engine's worker pools (0 selects
// GOMAXPROCS). Parallelism is a property of the serving host, not of
// the indexed data, so it is the one option that stays mutable after
// New and after Load — a snapshot built single-threaded can still
// saturate a many-core replica. Rankings are identical at any setting.
func (e *Engine) SetParallelism(n int) error {
	return e.core.SetParallelism(n)
}

// PrewarmScratch pre-populates the engine's pooled query arenas for n
// concurrent queries, so a serving process reaches its steady-state
// (near-)zero-allocation query path before the first burst of traffic
// instead of growing arenas under it. Serving layers call it with
// their admission capacity; it is optional — the pools fill themselves
// after a few queries either way.
func (e *Engine) PrewarmScratch(n int) { e.core.PrewarmScratch(n) }

// PlannerTotals snapshots the engine-lifetime query-planner counters:
// prepared-plan hits and misses (a miss is the first query of an
// evidence mask, which builds that mask's plan; every other query is a
// hit), and the cumulative pruning work
// (tables pruned, candidate pairs inside them, evidence evaluations
// elided). The counters accumulate across every query served by this
// engine; /v1/statsz exposes them for operators.
func (e *Engine) PlannerTotals() PlannerTotals { return e.core.PlannerTotals() }

// SetStageObserver installs (or, with nil, removes) an observer that
// receives the wall time of every pipeline stage of every ranking
// query — the hook the serving layer's /metrics histograms record
// through. With no observer the pipeline takes no timestamps at all,
// so an uninstrumented engine pays one atomic pointer load per query.
// The observer must be safe for concurrent use; last registration
// wins (the HTTP server re-registers on every hot engine swap).
func (e *Engine) SetStageObserver(o StageObserver) { e.core.SetStageObserver(o) }

// Fingerprint returns a cheap 64-bit fingerprint of this engine's
// state: stable across queries, changed by every Add, Remove and
// Compact. Within the lifetime of one engine value, a cache keyed by
// it can never serve a pre-mutation answer after the mutation lands.
//
// The fingerprint hashes engine identity (options, table names,
// liveness, attribute count), not cell contents: two engines built
// from different data that happen to share identity can collide, so
// it is NOT sufficient on its own to key a cache shared across
// engine instances — compose it with an instance discriminator, as
// internal/server does with its swap generation.
func (e *Engine) Fingerprint() uint64 {
	return e.core.Fingerprint()
}

// Compact rebuilds the four LSH indexes without the slack that
// incremental Add/Remove churn leaves in their backing arrays,
// restoring the tight layout of a fresh build. Query results, table
// ids and attribute ids are unaffected.
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.core.Compact()
}

// FormatExplanation renders explanation rows like the paper's Table I.
func FormatExplanation(rows []PairExplanation) string {
	return core.FormatExplanation(rows)
}

// Lake returns the indexed lake. The returned value is not internally
// locked: once queries or mutations may be in flight, prefer NumTables
// and HasTable, which read under the engine's lock.
func (e *Engine) Lake() *Lake { return e.core.Lake() }

// NumTables reports the lake's table-slot count (tombstoned slots of
// removed tables included), safely under concurrent mutations.
func (e *Engine) NumTables() int { return e.core.LakeLen() }

// HasTable reports whether a live table with the given name is
// indexed, safely under concurrent mutations.
func (e *Engine) HasTable(name string) bool { return e.core.HasTable(name) }

// NumAttributes reports how many attributes are indexed.
func (e *Engine) NumAttributes() int { return e.core.NumAttributes() }

// DistinctSignatures counts the distinct MinHash signatures the live
// attributes hold, per evidence type: names, values (over the text
// attributes) and formats. The engine keeps one copy of each; the gap
// to NumAttributes is how much the lake repeats itself.
func (e *Engine) DistinctSignatures() (names, values, formats int) {
	return e.core.DistinctSignatures()
}

// IndexSpaceBytes reports the index size Table II counts: the four
// forests' one-array encoded size plus the profile store. It is not the
// memory the engine holds.
func (e *Engine) IndexSpaceBytes() int64 { return e.core.IndexSpaceBytes() }

// ForestShapes reports, for I_N, I_V, I_F and I_E in that order, tree
// 0's entries and the distinct keys they sit under: how much each
// forest's keys repeat, which is what a forest's memory follows.
func (e *Engine) ForestShapes() (entries, keys [core.NumForestSlots]int) {
	return e.core.ForestShapes()
}

// JoinGraphEdges reports the SA-join graph size, building the graph if
// needed.
func (e *Engine) JoinGraphEdges() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// A background context never cancels, so the build cannot fail.
	g, _ := e.joinGraphCtx(context.Background())
	return g.Edges()
}

// TableName resolves a table id to its name, safely under concurrent
// mutations (the lookup runs under the engine's query lock, so it
// never races an Add or Remove splicing the lake).
func (e *Engine) TableName(id int) (string, error) {
	return e.core.TableNameByID(id)
}

// Tables returns the names of the live (non-tombstoned) tables,
// sorted, safely under concurrent mutations. The slice is a
// point-in-time copy.
func (e *Engine) Tables() []string { return e.core.TableNames() }
