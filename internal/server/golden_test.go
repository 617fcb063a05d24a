package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"d3l"
	"d3l/internal/datagen"
)

// The golden ranking regression suite. A deterministic datagen-seeded
// lake is queried through three paths that must agree byte-for-byte —
//
//	direct-CSV:    LoadLakeDir over the generated CSVs, fresh engine
//	snapshot-load: d3l.Save of that engine, then d3l.Load
//	HTTP:          d3l serve over the snapshot-loaded engine
//
// — and the agreed bytes must match the fixtures committed under
// testdata/golden. Any change to the scoring pipeline that perturbs a
// ranking, a distance, an alignment or the wire format fails here
// with a readable first-divergence diff. Regenerate intentionally
// with:
//
//	go test ./internal/server -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/golden")

// goldenConfig pins the corpus: changing any field is a fixture
// regeneration event.
func goldenConfig() datagen.SyntheticConfig {
	return datagen.SyntheticConfig{
		Seed:          1307,
		BaseTables:    5,
		DerivedTables: 20,
		MinRows:       30,
		MaxRows:       60,
		RenameProb:    0.25,
	}
}

const goldenK = 5

// goldenWorld is the expensive shared state of the suite, built once.
type goldenWorld struct {
	engineCSV  *d3l.Engine // direct-CSV path
	engineSnap *d3l.Engine // snapshot-load path
	baseURL    string      // HTTP path, serving engineSnap
	targets    []TableJSON // query corpus, name-sorted
}

var (
	goldenOnce sync.Once
	goldenW    *goldenWorld
	goldenErr  error
)

func golden(t *testing.T) *goldenWorld {
	t.Helper()
	goldenOnce.Do(func() { goldenW, goldenErr = buildGoldenWorld() })
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenW
}

func buildGoldenWorld() (*goldenWorld, error) {
	lake, _, err := datagen.Synthetic(goldenConfig())
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "d3l-golden-*")
	if err != nil {
		return nil, err
	}
	// The temp lake dir is process-scoped scratch; sync.Once has no
	// cleanup hook, so it is left for the OS tempdir policy.
	if err := d3l.SaveLakeDir(lake, dir); err != nil {
		return nil, err
	}
	csvLake, err := d3l.LoadLakeDir(dir)
	if err != nil {
		return nil, err
	}
	engineCSV, err := d3l.New(csvLake, d3l.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Save writes only a graph the engine holds; build it first, as
	// `d3l index build` does, so the snapshot-load path serves joins off
	// the persisted graph.
	engineCSV.JoinGraphEdges()
	var snap bytes.Buffer
	if err := d3l.Save(engineCSV, &snap); err != nil {
		return nil, err
	}
	engineSnap, err := d3l.Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return nil, err
	}
	srv, err := New(engineSnap, Config{})
	if err != nil {
		return nil, err
	}
	// Built under sync.Once (no testing.T in scope): the listener is
	// process-scoped and torn down with the test binary.
	hs := httptest.NewServer(srv)

	// The query corpus: every fourth lake table by sorted name (mixing
	// base and derived tables) — realistic targets with known answers.
	names := make([]string, 0, csvLake.Len())
	for _, tb := range csvLake.Tables() {
		names = append(names, tb.Name)
	}
	sort.Strings(names)
	var targets []TableJSON
	for i := 0; i < len(names) && len(targets) < 4; i += 4 {
		targets = append(targets, tableToJSON(csvLake.ByName(names[i])))
	}
	return &goldenWorld{
		engineCSV:  engineCSV,
		engineSnap: engineSnap,
		baseURL:    hs.URL,
		targets:    targets,
	}, nil
}

// tableToJSON converts a lake table back to wire shape (row-major).
func tableToJSON(t *d3l.Table) TableJSON {
	out := TableJSON{Name: t.Name}
	rows := t.Rows()
	for _, c := range t.Columns {
		out.Columns = append(out.Columns, c.Name)
	}
	out.Rows = make([][]string, rows)
	for r := 0; r < rows; r++ {
		row := make([]string, len(t.Columns))
		for c, col := range t.Columns {
			row[c] = col.Values[r]
		}
		out.Rows[r] = row
	}
	return out
}

// checkGolden compares the three paths against each other and the
// committed fixture, or rewrites the fixture under -update.
func checkGolden(t *testing.T, name string, direct, snapLoaded, httpBody []byte) {
	t.Helper()
	if !bytes.Equal(direct, snapLoaded) {
		t.Fatalf("direct-CSV and snapshot-load paths diverge:\n%s", firstDivergence(direct, snapLoaded))
	}
	if !bytes.Equal(direct, httpBody) {
		t.Fatalf("library and HTTP paths diverge:\n%s", firstDivergence(direct, httpBody))
	}
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(indentJSON(t, direct), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/server -run Golden -update` to generate fixtures", err)
	}
	got := append(indentJSON(t, direct), '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("ranking diverged from committed fixture %s:\n%s\n(intentional? regenerate with -update)",
			path, firstDivergence(want, got))
	}
}

// indentJSON reformats a compact body for a diffable fixture file; it
// is a pure reformatting (json.Indent touches no values), so fixture
// bytes and wire bytes carry identical information.
func indentJSON(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDivergence renders a readable diff: the line around the first
// differing line of the two JSON documents.
func firstDivergence(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			var b strings.Builder
			b.WriteString("first divergence at line ")
			b.WriteString(itoa(i + 1))
			b.WriteString(":\n")
			for j := lo; j <= i && j < n; j++ {
				marker := "  "
				if j == i {
					marker = "- "
				}
				b.WriteString(marker + w[j] + "\n")
			}
			b.WriteString("+ " + g[i] + "\n")
			return b.String()
		}
	}
	return "documents differ in length: want " + itoa(len(w)) + " lines, got " + itoa(len(g))
}

func itoa(i int) string { return strconv.Itoa(i) }

// ---- the golden assertions ---------------------------------------------

// TestGoldenBatch: one batch fixture over the whole corpus.
func TestGoldenBatch(t *testing.T) {
	w := golden(t)
	tables := make([]*d3l.Table, len(w.targets))
	for i := range w.targets {
		tbl, err := w.targets[i].toTable()
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	direct := marshalBatch(t, w.engineCSV, tables)
	snapLoaded := marshalBatch(t, w.engineSnap, tables)
	status, httpBody := postJSON(t, w.baseURL+"/v1/batch", BatchRequest{Tables: w.targets, K: kptr(goldenK)})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, httpBody)
	}
	checkGolden(t, "batch", direct, snapLoaded, httpBody)
}

// TestGoldenJoins: per-target WithJoins fixtures (D3L+J: join
// paths and Eq. 4/5 coverage ride along, so the fixtures also pin the
// SA-join graph construction).
func TestGoldenJoins(t *testing.T) {
	w := golden(t)
	for _, target := range w.targets {
		t.Run(target.Name, func(t *testing.T) {
			tbl, err := target.toTable()
			if err != nil {
				t.Fatal(err)
			}
			direct := marshalJoins(t, w.engineCSV, tbl)
			snapLoaded := marshalJoins(t, w.engineSnap, tbl)
			status, httpBody := postJSON(t, w.baseURL+"/v1/query", QueryRequest{Table: target, K: kptr(goldenK), Joins: true})
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, httpBody)
			}
			// The joins section of the response must carry exactly the
			// fixture's augmented results.
			var q QueryResponse
			if err := json.Unmarshal(httpBody, &q); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "joins_"+target.Name, direct, snapLoaded, marshalResults(t, q.Joins))
		})
	}
}

// TestGoldenQueryDefaults: per-target top-k fixtures across all three
// paths — direct-CSV, snapshot-load, and the results section of
// /v1/query with k alone.
func TestGoldenQueryDefaults(t *testing.T) {
	w := golden(t)
	for _, target := range w.targets {
		t.Run(target.Name, func(t *testing.T) {
			tbl, err := target.toTable()
			if err != nil {
				t.Fatal(err)
			}
			direct := marshalTopK(t, w.engineCSV, tbl)
			snapLoaded := marshalTopK(t, w.engineSnap, tbl)
			k := goldenK
			status, httpBody := postJSON(t, w.baseURL+"/v1/query", QueryRequest{Table: target, K: &k})
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, httpBody)
			}
			// The results section must carry exactly the fixture bytes.
			var q QueryResponse
			if err := json.Unmarshal(httpBody, &q); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "topk_"+target.Name, direct, snapLoaded, marshalResults(t, q.Results))
		})
	}
}

// TestGoldenQueryEndpoint pins the new endpoint's full wire shape
// (results + deterministic stats) against its own committed fixtures,
// across the same three paths.
func TestGoldenQueryEndpoint(t *testing.T) {
	w := golden(t)
	for _, target := range w.targets {
		t.Run(target.Name, func(t *testing.T) {
			tbl, err := target.toTable()
			if err != nil {
				t.Fatal(err)
			}
			direct := marshalQueryResponse(t, w.engineCSV, tbl)
			snapLoaded := marshalQueryResponse(t, w.engineSnap, tbl)
			k := goldenK
			status, httpBody := postJSON(t, w.baseURL+"/v1/query", QueryRequest{Table: target, K: &k})
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, httpBody)
			}
			checkGolden(t, "query_"+target.Name, direct, snapLoaded, httpBody)
		})
	}
}

// marshalQueryResponse mirrors handleQuery's marshaling for the
// library paths.
func marshalQueryResponse(t *testing.T, e *d3l.Engine, target *d3l.Table) []byte {
	t.Helper()
	ans, err := e.Query(context.Background(), target, d3l.WithK(goldenK))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func marshalTopK(t *testing.T, e *d3l.Engine, target *d3l.Table) []byte {
	t.Helper()
	ans, err := e.Query(context.Background(), target, d3l.WithK(goldenK))
	if err != nil {
		t.Fatal(err)
	}
	return marshalResults(t, ans.Results)
}

// marshalResults renders the {"results": ...} shape of the topk_* and
// joins_* fixtures.
func marshalResults(t *testing.T, results any) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		Results any `json:"results"`
	}{results})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func marshalBatch(t *testing.T, e *d3l.Engine, targets []*d3l.Table) []byte {
	t.Helper()
	answers, err := e.QueryBatch(context.Background(), targets, d3l.WithK(goldenK))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]d3l.Result, len(answers))
	for i, a := range answers {
		out[i] = a.Results
	}
	body, err := json.Marshal(BatchResponse{Results: out})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func marshalJoins(t *testing.T, e *d3l.Engine, target *d3l.Table) []byte {
	t.Helper()
	ans, err := e.Query(context.Background(), target, d3l.WithK(goldenK), d3l.WithJoins())
	if err != nil {
		t.Fatal(err)
	}
	return marshalResults(t, ans.Joins)
}

// TestGoldenBodiesRoundTrip decodes every committed fixture into the
// type the server marshals it from, re-encodes it and requires the
// fixture's bytes back. The golden tests above pin the encode
// direction; this pins that the library types' JSON tags also read
// what they write, and it fails if a field the wire never carries
// (Answer.Plan, QueryStats.Elapsed) loses its "-" tag.
func TestGoldenBodiesRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden fixtures found")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			var v any
			switch {
			case strings.HasPrefix(name, "topk_"):
				v = new(struct {
					Results []d3l.Result `json:"results"`
				})
			case strings.HasPrefix(name, "joins_"):
				v = new(struct {
					Results []d3l.Augmented `json:"results"`
				})
			case strings.HasPrefix(name, "query_"):
				v = new(QueryResponse)
			case name == "batch":
				v = new(BatchResponse)
			case name == "update_put":
				// TestGoldenUpdateWire's composite, keys in its map order.
				v = new(struct {
					Conflict         ErrorBody           `json:"conflict"`
					MethodNotAllowed ErrorBody           `json:"methodNotAllowed"`
					OK               UpdateTableResponse `json:"ok"`
				})
			default:
				t.Fatalf("no wire type for fixture %s", path)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(want))
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				t.Fatalf("decoding %s: %v", path, err)
			}
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(indentJSON(t, body), '\n'); !bytes.Equal(got, want) {
				t.Fatalf("%s does not survive a decode and re-encode:\n%s", path, firstDivergence(want, got))
			}
		})
	}
}
