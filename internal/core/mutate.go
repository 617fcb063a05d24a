package core

import (
	"errors"
	"fmt"

	"d3l/internal/table"
)

// Add profiles a table through the same Algorithm 1 code path as
// BuildEngine and splices its attribute signatures into the four
// indexes, making the table immediately discoverable. Profiling — the
// expensive part — happens outside the engine lock, so in-flight
// queries are blocked only for the index splice itself.
//
// An engine built over a lake and an engine that reaches the same lake
// contents through Add answer top-k queries identically (the
// incremental-correctness property the tests assert).
func (e *Engine) Add(t *table.Table) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("core: nil table")
	}
	// Profile with a placeholder table id; signatures do not depend on
	// it, and the real id is stamped once the lake assigns one.
	return e.AddProfiled(t, e.prof.ProfileTable(-1, t, e.classifier), nil)
}

// WriteIDs are where a write lands in the engine's id space: the table
// id an Add takes, and the first attribute id its fresh profiles take.
// An engine's own next ids are its slot counts. A shard engine is told
// them instead by its coordinator, which hands out ids for the whole
// set in write order, so each shard holds its tables under the ids a
// monolith given the same writes would have assigned.
type WriteIDs struct{ Table, Attr int }

// ErrWriteIDs reports assigned write ids the engine cannot take: below
// its next ids (a stale or repeated write) or too far past them.
var ErrWriteIDs = errors.New("core: write ids out of range")

// maxFill bounds how far past the engine's next table or attribute id
// one write may be assigned: by the larger of maxFill and the engine's
// own count of that kind of slot. Every id skipped becomes a fill slot
// the engine keeps for good — about 90 B for a table slot (lake entry,
// per-table entries) and 176 B for an attribute stub (a Profile with
// no payload) — so one request fills at most maxFill slots or doubles
// the engine. A shard lags its coordinator by the ids its peers took
// since its own last write; see DESIGN, "The fill bound". A var only
// so that tests can reach the bound at a small size.
var maxFill = 1 << 20

// place resolves where a write lands: at, when the coordinator
// assigned it, else the engine's next ids. Caller holds e.mu in write
// mode.
func (e *Engine) place(at *WriteIDs) (WriteIDs, error) {
	next := WriteIDs{Table: len(e.byTable), Attr: len(e.profiles)}
	if at == nil {
		return next, nil
	}
	if at.Table < next.Table || at.Attr < next.Attr {
		return next, fmt.Errorf("%w: table %d, attribute %d is below the next ids %d, %d (a stale or repeated write)",
			ErrWriteIDs, at.Table, at.Attr, next.Table, next.Attr)
	}
	if at.Table-next.Table > max(maxFill, next.Table) || at.Attr-next.Attr > max(maxFill, next.Attr) {
		return next, fmt.Errorf("%w: table %d, attribute %d is too far past the next ids %d, %d: "+
			"the gap may be at most %d or the engine's own slot count (a shard's peers took more ids than that since its last write)",
			ErrWriteIDs, at.Table, at.Attr, next.Table, next.Attr, maxFill)
	}
	return *at, nil
}

// fill puts the attribute stubs that fill the id space up to attr in
// front of fresh, the profiles a write is about to splice in. A stub
// has no signatures, so splice writes no forest key for it, and no
// table lists it. It names table tid, the table written, so that a
// snapshot's attribute table ids stay in range. Caller holds e.mu.
func (e *Engine) fill(attr, tid int, fresh []Profile) []Profile {
	n := attr - len(e.profiles)
	if n == 0 {
		return fresh
	}
	stubs := make([]Profile, n, n+len(fresh))
	for i := range stubs {
		stubs[i] = Profile{Ref: AttrRef{TableID: tid}}.stub()
	}
	return append(stubs, fresh...)
}

// AddProfiled is the locked splice half of Add: callers that must
// keep profiling outside their own locks (the public d3l engine does)
// profile via ProfileTarget first and hand the result in. profiles
// must come from this engine's profiler for exactly t. The table lands
// at at (see WriteIDs), or at the engine's next ids when at is nil; the
// ids it skips become dead fill slots — lake slots with no name, and
// attribute stubs. A failed Add leaves the engine as it was, its next
// ids included.
func (e *Engine) AddProfiled(t *table.Table, profiles []Profile, at *WriteIDs) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("core: nil table")
	}
	for i := range profiles {
		assertSortedExtent(&profiles[i], "AddProfiled")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ids, err := e.place(at)
	if err != nil {
		return 0, err
	}
	tid, subject := ids.Table, -1
	attrs := make([]int, len(profiles))
	for i := range profiles {
		profiles[i].Ref.TableID = tid
		attrs[i] = ids.Attr + i
		if profiles[i].Subject {
			subject = attrs[i]
		}
	}
	err = e.splice(e.fill(ids.Attr, tid, profiles), nil, func() error {
		if _, err := e.lake.AddAt(t, tid); err != nil {
			return err
		}
		// The per-table slices grow with the lake: BuildEngine covers
		// every lake table, and Remove tombstones slots instead of
		// compacting them.
		for len(e.byTable) < tid {
			e.byTable = append(e.byTable, nil)
			e.subjects = append(e.subjects, -1)
			e.alive = append(e.alive, false)
		}
		e.byTable = append(e.byTable, attrs)
		e.subjects = append(e.subjects, subject)
		e.alive = append(e.alive, true)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return tid, nil
}

// splice is the one write step of Add, Update and Remove. The fresh
// profiles enter the four forests under the ids they are about to get
// (len(e.profiles)+i), then the keys of the attributes in drop leave.
// Only when every forest write has succeeded does commit land the
// mutation's own table state (its lake entry and per-table slots); it
// may refuse, as the lake refuses a duplicate name, but only before it
// changes anything. Then the fresh profiles join the store and take
// their signatures from the signature table, the dropped ones shrink to
// stubs, and the version moves. So a failed write takes no signature
// reference.
//
// A failed forest write or a refused commit undoes every key written so
// far, the failing attribute's included, and returns the error: the
// engine is left exactly as it was. Inserts come before deletes so that
// this undo is exact — deleting an inserted key restores the tree byte
// for byte, where re-inserting a deleted one need not put it back at
// its old place among equal keys. The order does not change what a
// successful splice leaves: an insert lands at the head of its run of
// equal keys whatever was deleted around it. An undo cannot fail: it
// writes only keys whose signatures the forests just accepted.
//
// Caller holds e.mu in write mode.
func (e *Engine) splice(fresh []Profile, drop []int, commit func() error) error {
	base := len(e.profiles)
	var evals []uint32
	// Step k writes fresh[k]'s keys, or past the fresh profiles deletes
	// drop[k-len(fresh)]'s; with undo it reverses its first slots slots.
	step := func(k int, undo bool, slots int) (int, error) {
		if k < len(fresh) {
			return writeKeys(&e.forests, base+k, &fresh[k], undo, slots, &evals)
		}
		attrID := drop[k-len(fresh)]
		return writeKeys(&e.forests, attrID, &e.profiles[attrID], !undo, slots, &evals)
	}
	rollback := func(k, slots int) {
		for ; k >= 0; k, slots = k-1, numForestSlots {
			_, _ = step(k, true, slots) // cannot fail: see above
		}
	}
	steps := len(fresh) + len(drop)
	for k := 0; k < steps; k++ {
		if done, err := step(k, false, numForestSlots); err != nil {
			rollback(k, done)
			return err
		}
	}
	if err := commit(); err != nil {
		rollback(steps-1, numForestSlots)
		return err
	}
	// The fresh profiles take their signature references before the
	// dropped ones give theirs back, so a signature an Update keeps
	// stays in the table throughout.
	e.profiles = append(e.profiles, fresh...)
	for i := base; i < len(e.profiles); i++ {
		e.sigs.hold(&e.profiles[i])
	}
	for _, attrID := range drop {
		// An in-place write under the write lock — see the Profile
		// method doc for the pointer-retention rule it imposes.
		e.sigs.drop(&e.profiles[attrID])
		e.profiles[attrID] = e.profiles[attrID].stub()
	}
	e.assertSigTable("splice")
	e.bumpVersion()
	return nil
}

// stub is p reduced to the metadata a dead attribute keeps: no
// signatures, no signature ids and no extent, so Add/Remove churn does
// not accumulate dead payloads (splice gives the signature references
// back to the table first). Its forest keys are gone (or never
// existed), so it can never surface as a candidate, and the join
// builders skip dead tables.
func (p Profile) stub() Profile {
	return Profile{Ref: p.Ref, Name: p.Name, Numeric: p.Numeric, Subject: p.Subject, EZero: true}
}

// Compact rebuilds the four forests from live attributes only: every
// tree becomes one sorted base again, with no delta and no dead ids,
// and without the capacity a delta keeps after its entries leave. The
// rebuilt trees are byte-identical to those of an engine built over the
// surviving tables (attribute ids included), so queries are unaffected.
// Attribute and table ids remain stable; tombstoned slots stay
// tombstoned.
//
// Snapshot writing needs no Compact first: tombstoned profiles are
// metadata-only stubs and a snapshot holds no forests, so snapshots do
// not grow with mutation churn. A load rebuilds the forests as Compact
// does.
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	forests, err := e.indexLive()
	if err != nil {
		return err
	}
	e.forests = forests
	e.bumpVersion()
	return nil
}

// Remove deletes the named table from the engine: its attribute keys
// leave all four indexes, so it can no longer be retrieved by any
// query. The table id slot is tombstoned rather than compacted —
// attribute and table ids of other tables are unaffected — and the
// name becomes free for a later Add. Outstanding ids still resolve
// through the Lake (to a name-only stub). Tombstoned attribute
// profiles are reduced to metadata so Add/Remove churn does not
// accumulate dead signatures and extents.
func (e *Engine) Remove(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	tid, ok := e.lake.IDByName(name)
	if !ok {
		return fmt.Errorf("%w: no table %q in the lake", ErrTableNotFound, name)
	}
	return e.splice(nil, e.byTable[tid], func() error {
		e.lake.Remove(name)
		e.alive[tid] = false
		return nil
	})
}
