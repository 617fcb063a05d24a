package joins

import (
	"fmt"

	"d3l/internal/core"
	"d3l/internal/lsh"
)

// BuildGraphEnsemble builds the SA-join graph using an LSH Ensemble
// (Zhu, Nargesian, Pu, Miller; PVLDB 2016) over attribute tsets instead
// of the value forest. The paper cites LSH Ensemble as an improvement
// "compatible with our use case" for sets with skewed lengths — which
// is exactly the join-key situation: a small dimension table's subject
// attribute is *contained in* a large fact column, so Jaccard-tuned
// lookups miss it while containment-tuned partitions keep it.
func BuildGraphEnsemble(e *core.Engine, opts GraphOptions) (*Graph, error) {
	if opts.CandidateBudget <= 0 {
		opts.CandidateBudget = 256
	}
	lake := e.Lake()
	// Index every textual attribute with its tset cardinality.
	builder, err := lsh.NewEnsembleBuilder(e.Threshold(), e.Options().MinHashSize, 8)
	if err != nil {
		return nil, fmt.Errorf("joins: ensemble: %w", err)
	}
	for attrID := 0; attrID < e.NumAttributes(); attrID++ {
		p := e.Profile(attrID)
		if p.Numeric || p.TSize == 0 || !e.AliveTable(p.Ref.TableID) {
			continue
		}
		if err := builder.Add(int32(attrID), p.TSize, p.TSig); err != nil {
			return nil, fmt.Errorf("joins: ensemble add: %w", err)
		}
	}
	ensemble, err := builder.Build()
	if err != nil {
		return nil, fmt.Errorf("joins: ensemble build: %w", err)
	}

	g := &Graph{engine: e, adj: make(map[int][]Edge)}
	seen := make(map[[2]int]bool)
	for tid := 0; tid < lake.Len(); tid++ {
		if !e.AliveTable(tid) {
			continue // tombstoned by Engine.Remove
		}
		subj, ok := e.SubjectAttr(tid)
		if !ok {
			continue
		}
		sp := e.Profile(subj)
		if sp.Numeric || sp.TSize == 0 {
			continue
		}
		cands, err := ensemble.Query(sp.TSig, sp.TSize)
		if err != nil {
			return nil, fmt.Errorf("joins: ensemble query: %w", err)
		}
		for _, cid := range cands {
			if int(cid) == subj {
				continue
			}
			cp := e.Profile(int(cid))
			otherTID := cp.Ref.TableID
			if otherTID == tid {
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
			g.adj[tid] = append(g.adj[tid], Edge{From: tid, To: otherTID, FromAttr: subj, ToAttr: int(cid), Overlap: ov})
			g.adj[otherTID] = append(g.adj[otherTID], Edge{From: otherTID, To: tid, FromAttr: int(cid), ToAttr: subj, Overlap: ov})
			g.edges++
		}
	}
	return g, nil
}
