package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"

	"d3l/internal/datagen"
	"d3l/internal/table"
)

// inputs is everything a run generates. The lake and the tables that
// targets are cut from are always those of defaultSeed — a fixed
// corpus, so that index size, build time and answer quality do not move
// with the run seed (measured across ten lake seeds: 1.4 % on snapshot
// size, 12 % on precision@10, more than any bound). The run seed drives
// the request stream: which 64-row window of each source table is the
// target, and the order of the slots in a pass.
type inputs struct {
	lake     *table.Lake
	gt       *datagen.GroundTruth
	sources  []*table.Table // target source tables, in slot order
	offsets  []int          // first row of source i's unshifted window
	probes   []*table.Table // sources of the seed-independent quality probes
	scratch  *table.Table   // source of the write phases' scratch table
	scratch0 int            // first row of the scratch window
}

// tableJSON and queryRequest are the wire shapes of POST /v1/query and
// of the /v1/tables mutations. The benchmark owns its copy: the wire
// format is the contract under test, not the server's Go types.
type tableJSON struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type queryRequest struct {
	Table tableJSON `json:"table"`
	K     int       `json:"k"`
}

type tableRequest struct {
	Table tableJSON `json:"table"`
}

// scratchArity is the width of the write phases' table: write cost is
// proportional to it, so it is pinned rather than drawn.
const scratchArity = 5

// syntheticLake generates the lake: the same tables on every call.
func syntheticLake(tables int) (*table.Lake, *datagen.GroundTruth, error) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = defaultSeed
	cfg.BaseTables = lakeBaseTables
	cfg.DerivedTables = tables
	return datagen.Synthetic(cfg)
}

// generate builds the lake with the given number of derived tables,
// picks n target sources and a scratch source from it, and draws the
// windows and the slot order from seed. Sources are lake tables with
// enough rows for every shifted window to be a distinct set of rows.
func generate(seed uint64, tables, n int) (*inputs, error) {
	lake, gt, err := syntheticLake(tables)
	if err != nil {
		return nil, err
	}
	in := &inputs{lake: lake, gt: gt}
	const need = windowRows + maxShift
	var eligible []*table.Table
	for _, name := range datagen.PickTargets(lake, gt, lake.Len(), defaultSeed) {
		if t := lake.ByName(name); t.Rows() >= need {
			eligible = append(eligible, t)
		}
	}
	// Targets and probes come off the front of the list, the scratch
	// table from behind them: a table that is never a target.
	taken := max(n, qualityProbes)
	if len(eligible) > taken {
		for _, t := range eligible[taken:] {
			if t.Arity() == scratchArity {
				in.scratch = t
				break
			}
		}
	}
	if in.scratch == nil {
		return nil, fmt.Errorf("the lake has %d tables of %d+ rows: too few for %d targets and a %d-column scratch table",
			len(eligible), need, taken, scratchArity)
	}
	// The probes are the first windows of the first eligible tables,
	// untouched by the run seed: the same requests in every run.
	in.probes = eligible[:qualityProbes]
	in.sources = append(in.sources, eligible[:n]...)
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(in.sources), func(i, j int) { in.sources[i], in.sources[j] = in.sources[j], in.sources[i] })
	in.offsets = make([]int, n)
	for i, t := range in.sources {
		in.offsets[i] = rng.Intn(t.Rows() - need + 1)
	}
	in.scratch0 = rng.Intn(in.scratch.Rows() - need + 1)
	return in, nil
}

// window returns rows [first, first+windowRows) of src as a wire table
// named name.
func window(src *table.Table, name string, first int) tableJSON {
	t := tableJSON{Name: name, Columns: src.ColumnNames(), Rows: make([][]string, windowRows)}
	for r := range t.Rows {
		row := make([]string, len(src.Columns))
		for c, col := range src.Columns {
			row[c] = col.Values[first+r]
		}
		t.Rows[r] = row
	}
	return t
}

// target is the query target of source i at the given window shift.
func (in *inputs) target(i, shift int) tableJSON {
	src := in.sources[i]
	return window(src, "target_"+src.Name, in.offsets[i]+shift)
}

// op is one operation slot of a pass: the request to send and how to
// account for its answer.
type op struct {
	method string
	path   string
	body   []byte
	write  bool
	// source names the lake table a read's target is a window of ("" for
	// writes); the quality scorer keys on it.
	source string
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints cannot fail to marshal
	}
	return b
}

// readOp is a top-k query for the window of source i shifted by shift.
func (in *inputs) readOp(i, shift int) op {
	return queryOp(in.target(i, shift), in.sources[i].Name)
}

func queryOp(target tableJSON, source string) op {
	return op{
		method: http.MethodPost,
		path:   "/v1/query",
		body:   mustJSON(queryRequest{Table: target, K: queryK}),
		source: source,
	}
}

// probePass is the quality probe: one query per probe source for its
// first windowRows rows. It doubles as the warm-up of every workload,
// and its answers are what precision and recall are computed from, so
// those two do not move with the run seed.
func (in *inputs) probePass() []op {
	ops := make([]op, len(in.probes))
	for i, src := range in.probes {
		ops[i] = queryOp(window(src, "probe_"+src.Name, 0), src.Name)
	}
	return ops
}

// scratchName is the lake name of the write phases' table.
const scratchName = "bench_scratch"

// scratchTable is the table the write ops add; updated replaces the
// values of its first column with those half a window further on, so an
// update re-profiles exactly one column.
func (in *inputs) scratchTable(updated bool) tableJSON {
	t := window(in.scratch, scratchName, in.scratch0)
	if updated {
		for r := range t.Rows {
			t.Rows[r][0] = in.scratch.Columns[0].Values[in.scratch0+maxShift/2+r]
		}
	}
	return t
}

// writeOps is one add → update-one-column → remove cycle.
func (in *inputs) writeOps() [3]op {
	path := "/v1/tables/" + url.PathEscape(scratchName)
	return [3]op{
		{method: http.MethodPost, path: "/v1/tables", body: mustJSON(tableRequest{Table: in.scratchTable(false)}), write: true},
		{method: http.MethodPut, path: path, body: mustJSON(tableRequest{Table: in.scratchTable(true)}), write: true},
		{method: http.MethodDelete, path: path, write: true},
	}
}

// coldPass is one pass of a cold workload: every slot queries its own
// source's window shifted by shift, so no two requests of a run share
// a body and no cache can answer any of them.
func (in *inputs) coldPass(slots, shift int) []op {
	ops := make([]op, slots)
	for i := range ops {
		ops[i] = in.readOp(i%len(in.sources), shift)
	}
	return ops
}

// hotPass is slots requests cycling through the unshifted windows of
// all sources: the hot set of the churn workload.
func (in *inputs) hotPass(slots int) []op {
	base := make([]op, len(in.sources))
	for i := range base {
		base[i] = in.readOp(i, 0)
	}
	ops := make([]op, slots)
	for i := range ops {
		ops[i] = base[i%len(base)]
	}
	return ops
}

// churnPass is churnCycles cycles of one write followed by churnReads
// reads over the hot set: the write purges the result cache and moves
// the engine fingerprint, so the first read of each hot target after it
// is a miss and the remaining two are hits.
func (in *inputs) churnPass() []op {
	writes := in.writeOps()
	base := make([]op, len(in.sources))
	for i := range base {
		base[i] = in.readOp(i, 0)
	}
	var ops []op
	for c := 0; c < churnCycles; c++ {
		ops = append(ops, writes[c%3])
		for r := 0; r < churnReads; r++ {
			ops = append(ops, base[r%len(base)])
		}
	}
	return ops
}

// latencyPass is one pass of phase A: the workload's own traffic, cold
// passes at the given window shift.
func (in *inputs) latencyPass(spec workloadSpec, shift int) []op {
	if spec.traffic == trafficChurn {
		return in.churnPass()
	}
	return in.coldPass(spec.slots, shift)
}

// writePass is writeCycles add → update → remove cycles.
func (in *inputs) writePass() []op {
	writes := in.writeOps()
	ops := make([]op, 0, 3*writeCycles)
	for c := 0; c < writeCycles; c++ {
		ops = append(ops, writes[:]...)
	}
	return ops
}
