package core

import (
	"fmt"

	"d3l/internal/table"
)

// Shard sets keep one id space across N engines: every table and
// attribute id is assigned identically on every shard, with the owning
// shard holding the real profiles and forests and the peers holding
// dead mirror slots. The mirror mutations below are the peer half of
// that lockstep — they advance the id counters exactly as the owner's
// real Add/Update does without indexing anything, so the slots they
// create are invisible to queries (no forest keys, alive false,
// detached name) yet keep ids aligned across the set. Remove needs no
// mirror: the owner tombstones in place without moving any counter.

// MirrorAdd appends a dead table slot mirroring an Add applied on a
// peer shard: the next table id is consumed, numCols attribute ids are
// consumed, and nothing becomes discoverable. The returned id equals
// the id the owning shard assigned.
func (e *Engine) MirrorAdd(name string, numCols int) (int, error) {
	if numCols < 0 {
		return 0, fmt.Errorf("core: MirrorAdd with %d columns", numCols)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if tid, ok := e.lake.IDByName(name); ok {
		return 0, fmt.Errorf("%w: %q is live locally as table %d", table.ErrDuplicateName, name, tid)
	}
	tid := e.lake.Reserve(name)
	e.byTable = append(e.byTable, e.appendStubs(tid, numCols))
	e.subjects = append(e.subjects, -1)
	e.alive = append(e.alive, false)
	e.bumpVersion()
	return tid, nil
}

// MirrorUpdate appends numFresh dead attribute slots mirroring an
// in-place Update applied on a peer shard (numFresh is the owner's
// UpdateStats.Reprofiled — the count of fresh attribute ids the real
// update consumed). The slots attach to the mirrored table so
// snapshots of the mirror remain internally consistent.
func (e *Engine) MirrorUpdate(tid, numFresh int) error {
	if numFresh < 0 {
		return fmt.Errorf("core: MirrorUpdate with %d fresh attributes", numFresh)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if tid < 0 || tid >= len(e.byTable) {
		return fmt.Errorf("core: MirrorUpdate of unknown table id %d", tid)
	}
	if e.alive[tid] {
		return fmt.Errorf("core: MirrorUpdate of table %d, which is live on this shard", tid)
	}
	e.byTable[tid] = append(e.byTable[tid], e.appendStubs(tid, numFresh)...)
	e.bumpVersion()
	return nil
}

// appendStubs appends n dead attribute slots of table tid, columns 0 to
// n-1, and returns their ids. Caller holds e.mu in write mode.
func (e *Engine) appendStubs(tid, n int) []int {
	attrs := make([]int, n)
	for j := range attrs {
		attrs[j] = len(e.profiles)
		e.profiles = append(e.profiles, Profile{Ref: AttrRef{TableID: tid, Column: j}}.stub())
	}
	return attrs
}
