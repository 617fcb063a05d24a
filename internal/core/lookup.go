package core

import (
	"fmt"
	"sort"
)

// VCandidates queries the value index I_V with a lake attribute's own
// tset signature and appends to dst the candidate attribute ids
// (excluding the queried attribute), in the order I_V proposes them. It
// backs the SA-join graph construction of Section IV, which relies on
// I_V to identify postulated inclusion dependencies; a caller that
// passes back the slice it got allocates nothing once it has grown.
func (e *Engine) VCandidates(attrID int, budget int, dst []int32) []int32 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a := &e.attrs[attrID]
	if a.is(attrNumeric) || a.tSize == 0 {
		return dst
	}
	ids, err := e.forests[forestSlotV].Query(e.sigs.sig(a.t), budget, dst)
	if err != nil {
		return dst
	}
	out := ids[:len(dst)]
	for _, id := range ids[len(dst):] {
		if int(id) != attrID {
			out = append(out, id)
		}
	}
	return out
}

// Threshold exposes the configured LSH threshold τ.
func (e *Engine) Threshold() float64 { return e.opts.Threshold }

// LakeLen reports the lake's table-slot count (tombstoned slots
// included) under the query lock — the mutation-safe alternative to
// Lake().Len() for callers that run concurrently with Add/Remove,
// such as the HTTP serving layer.
func (e *Engine) LakeLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lake.Len()
}

// HasTable reports whether a live table with the given name is
// indexed, under the query lock (safe concurrently with mutations).
func (e *Engine) HasTable(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.lake.IDByName(name)
	return ok
}

// TableNameByID resolves a table id to its name under the query lock —
// the mutation-safe alternative to Lake().Table(id).Name for callers
// that run concurrently with Add/Remove. Ids of removed tables still
// resolve (to the name their tombstoned stub retains), matching the
// Lake's stable-id contract.
func (e *Engine) TableNameByID(id int) (string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || id >= e.lake.Len() {
		return "", fmt.Errorf("core: table id %d out of range", id)
	}
	return e.lake.Table(id).Name, nil
}

// TableNames returns the names of the live (non-tombstoned) tables,
// sorted, under the query lock. The slice is freshly allocated — a
// point-in-time listing that stays valid after mutations land.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	out := make([]string, 0, len(e.alive))
	for tid := range e.alive {
		if e.alive[tid] {
			out = append(out, e.lake.Table(tid).Name)
		}
	}
	e.mu.RUnlock()
	sort.Strings(out)
	return out
}

// RelatedColumnPairs returns, for every target column, the lake table's
// column indices related to it by any index. Its keys are the target
// columns the table covers, the numerator of the Eq. 4 coverage, and a
// table with none fails the Algorithm 3 path guard "Ni ∈ I*.lookup(T)";
// its values back attribute precision (Experiments 9 and 11).
func (e *Engine) RelatedColumnPairs(tableID int, targetProfiles []Profile) map[int][]int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[int][]int)
	for _, attrID := range e.byTable[tableID] {
		for i := range targetProfiles {
			if e.attrRelatedAnyIndex(&targetProfiles[i], attrID) {
				out[i] = append(out[i], int(e.attrs[attrID].column))
			}
		}
	}
	return out
}
