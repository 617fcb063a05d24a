package joins

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"d3l/internal/core"
	"d3l/internal/datagen"
	"d3l/internal/persist"
)

// buildGraphReference is BuildGraph as a table-at-a-time loop: probe,
// dedup against every pair seen so far, estimate, keep. It is the
// definition of the graph — which pair keeps which edge, and the order
// adjacency lists grow in — that the fanned-out build must reproduce.
func buildGraphReference(e *core.Engine, opts GraphOptions) *Graph {
	g := &Graph{engine: e, adj: make(map[int][]Edge)}
	seen := make(map[[2]int]bool)
	for tid := 0; tid < e.Lake().Len(); tid++ {
		if !e.AliveTable(tid) {
			continue
		}
		subj, ok := e.SubjectAttr(tid)
		if !ok {
			continue
		}
		sp := e.Profile(subj)
		for _, candID := range e.VCandidates(subj, opts.CandidateBudget) {
			cp := e.Profile(candID)
			otherTID := cp.Ref.TableID
			if otherTID == tid || !e.AliveTable(otherTID) {
				continue
			}
			key := [2]int{tid, otherTID}
			if otherTID < tid {
				key = [2]int{otherTID, tid}
			}
			if seen[key] {
				continue
			}
			ov := e.OverlapCoefficient(sp, cp)
			if ov < overlapFloor(opts, e, sp, cp) {
				continue
			}
			seen[key] = true
			g.adj[tid] = append(g.adj[tid], Edge{From: tid, To: otherTID, FromAttr: subj, ToAttr: candID, Overlap: ov})
			g.adj[otherTID] = append(g.adj[otherTID], Edge{From: otherTID, To: tid, FromAttr: candID, ToAttr: subj, Overlap: ov})
			g.edges++
		}
	}
	for tid := range g.adj {
		sort.Slice(g.adj[tid], func(i, j int) bool { return g.adj[tid][i].Overlap > g.adj[tid][j].Overlap })
	}
	return g
}

func encoded(g *Graph) []byte {
	var b persist.Buffer
	g.Encode(&b)
	return b.Sealed()
}

// TestBuildGraphEqualsSequentialAtAnyParallelism: the snapshot's join
// graph section is the same bytes whether candidates were generated on
// 1, 2 or 8 workers, over more tables than one merge block holds, some
// of them removed, and with a table two of whose attributes are
// candidates of the same neighbour's subject attribute (the pair keeps
// the first).
func TestBuildGraphEqualsSequentialAtAnyParallelism(t *testing.T) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 77
	cfg.BaseTables = 6
	cfg.DerivedTables = graphBlock + 40
	cfg.MinRows, cfg.MaxRows = 12, 24
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := make([][]string, 20)
	twice := make([][]string, 20)
	for i := range names {
		name := fmt.Sprintf("Practice %c%c Surgery", 'A'+i, 'Z'-i)
		names[i] = []string{name, fmt.Sprint(100 + i)}
		twice[i] = []string{name, name, fmt.Sprint(i)}
	}
	for _, tb := range []struct {
		name string
		cols []string
		rows [][]string
	}{
		{"zz_keys", []string{"Practice", "Patients"}, names},
		{"zz_twice", []string{"Practice", "Practice again", "Rank"}, twice},
	} {
		if _, err := lake.Add(mustTable(t, tb.name, tb.cols, tb.rows)); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	e, err := core.BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tid := range []int{3, graphBlock - 1, graphBlock, graphBlock + 7} {
		if err := e.Remove(lake.Table(tid).Name); err != nil {
			t.Fatal(err)
		}
	}
	gopts := DefaultGraphOptions()
	ref := buildGraphReference(e, gopts)
	if ref.Edges() == 0 {
		t.Fatal("reference graph has no edges")
	}
	keys, _ := lake.IDByName("zz_keys")
	twiceID, _ := lake.IDByName("zz_twice")
	subj, _ := e.SubjectAttr(keys)
	hits := 0
	for _, cand := range e.VCandidates(subj, gopts.CandidateBudget) {
		if e.Profile(cand).Ref.TableID == twiceID {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("fixture: %d attributes of zz_twice are candidates of zz_keys, want 2", hits)
	}
	pair := 0
	for _, edge := range ref.Neighbours(keys) {
		if edge.To == twiceID {
			pair++
		}
	}
	if pair != 1 {
		t.Fatalf("zz_keys has %d edges to zz_twice, want exactly 1", pair)
	}
	want := encoded(ref)
	if got := len(want) - 4; got != ref.EncodedSize() {
		t.Fatalf("EncodedSize %d, Encode wrote %d bytes", ref.EncodedSize(), got)
	}
	for _, parallelism := range []int{1, 2, 8} {
		if err := e.SetParallelism(parallelism); err != nil {
			t.Fatal(err)
		}
		g, err := BuildGraphCtx(context.Background(), e, gopts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(g), want) {
			t.Fatalf("parallelism %d: graph (%d edges) encodes differently from the sequential build (%d edges)", parallelism, g.Edges(), ref.Edges())
		}
	}
}
