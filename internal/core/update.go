package core

import (
	"fmt"

	"d3l/internal/table"
)

// This file is the in-place mutation half of the living-lake layer:
// Update re-indexes a table that changed on the outside without
// re-profiling what did not change. Columns are matched by name against
// the stored table; a column whose name, type and extent are identical
// keeps its attribute id, its profile and its forest keys untouched
// (only its column position and subject flag may move). Changed, added
// and dropped columns go through the splice Add and Remove use, so an
// Update is all-or-nothing as they are.

// UpdateStats reports what one Update actually did. Reprofiled is the
// delta the serving layer's update_delta_cols counter accumulates: the
// number of columns whose profiles were computed fresh (changed plus
// added); Kept columns reused their existing attribute id and forest
// keys wholesale.
type UpdateStats struct {
	TableID    int `json:"id"`
	Reprofiled int `json:"reprofiledCols"` // columns profiled fresh (changed + added)
	Kept       int `json:"keptCols"`       // columns that kept attribute id, profile and forest keys
	Added      int `json:"addedCols"`      // incoming column names the stored table did not have
	Dropped    int `json:"droppedCols"`    // stored column names the incoming table no longer has
}

// columnUnchanged reports whether a stored column and an incoming
// column carry identical content. Name, inferred type and the full
// extent must match; profiles are deterministic functions of exactly
// these inputs, so an unchanged column's retained profile equals the
// one a re-profile would compute.
func columnUnchanged(old, new *table.Column) bool {
	if old.Name != new.Name || old.Type != new.Type || len(old.Values) != len(new.Values) {
		return false
	}
	for i := range old.Values {
		if old.Values[i] != new.Values[i] {
			return false
		}
	}
	return true
}

// hasDupColumnNames reports whether any two columns share a name.
// table.New disambiguates headers at ingest, but tables assembled by
// hand can still collide — and name-keyed diffing would then be
// ambiguous.
func hasDupColumnNames(t *table.Table) bool {
	seen := make(map[string]struct{}, len(t.Columns))
	for _, c := range t.Columns {
		if _, dup := seen[c.Name]; dup {
			return true
		}
		seen[c.Name] = struct{}{}
	}
	return false
}

// diffColumnsLocked matches the incoming table's columns against the
// stored table tid by name. It returns one entry per incoming column:
// the attribute id to keep for an unchanged column, or -1 for a column
// that needs a fresh profile. The caller holds e.mu (either mode).
//
// Two situations disable matching entirely (every entry -1, a full
// re-profile — always correct, never wrong, just more work): a stored
// table that is metadata-only (snapshot-loaded lakes carry no extents
// to diff against) and duplicate column names on either side.
func (e *Engine) diffColumnsLocked(tid int, t *table.Table) []int {
	keep := make([]int, t.Arity())
	for j := range keep {
		keep[j] = -1
	}
	old := e.lake.Table(tid)
	if old.MetaOnly() || hasDupColumnNames(old) || hasDupColumnNames(t) {
		return keep
	}
	oldIdx := make(map[string]int, len(old.Columns))
	for i, c := range old.Columns {
		oldIdx[c.Name] = i
	}
	attrs := e.byTable[tid]
	for j, c := range t.Columns {
		i, ok := oldIdx[c.Name]
		if !ok || i >= len(attrs) {
			continue
		}
		if columnUnchanged(old.Columns[i], c) {
			keep[j] = attrs[i]
		}
	}
	return keep
}

// Update re-indexes t in place: unchanged columns keep their attribute
// ids and forest keys, changed ones are re-profiled and re-spliced
// under the engine's next attribute ids, and the table keeps its id.
// It diffs t against the stored table of the same name under the read
// lock and profiles the changed columns with no lock held — the
// expensive part, so queries keep flowing. Then, under the write lock,
// it diffs again (a mutation may have landed in between), profiles any
// column the fresh diff adds, and splices: a stale first diff costs at
// most some wasted or extra profiling, never a wrong index, because a
// profile is a function of the incoming column alone. Callers that
// must not interleave with other mutations (the public d3l engine)
// serialise Update under their own mutation lock. A failed Update
// leaves the engine as it was.
func (e *Engine) Update(t *table.Table) (UpdateStats, error) { return e.update(t, nil) }

// UpdateAt is Update with the fresh attributes placed from attribute
// id attr on, as a coordinator assigned it (see WriteIDs); the ids it
// skips become attribute stubs, as in AddProfiled.
func (e *Engine) UpdateAt(t *table.Table, attr int) (UpdateStats, error) { return e.update(t, &attr) }

// update is Update and UpdateAt: attrAt, when set, is the assigned
// first attribute id.
func (e *Engine) update(t *table.Table, attrAt *int) (UpdateStats, error) {
	if t == nil {
		return UpdateStats{}, fmt.Errorf("core: nil table")
	}
	notFound := fmt.Errorf("%w: no table %q in the lake", ErrTableNotFound, t.Name)
	e.mu.RLock()
	tid, ok := e.lake.IDByName(t.Name)
	var keep []int
	if ok {
		keep = e.diffColumnsLocked(tid, t)
	}
	e.mu.RUnlock()
	if !ok {
		return UpdateStats{}, notFound
	}
	profiles := make([]Profile, t.Arity())
	profiled := make([]bool, t.Arity())
	scratch := e.prof.scratch.Get().(*profileScratch)
	defer e.prof.putScratch(scratch)
	profileChanged := func() {
		for j, col := range t.Columns {
			if keep[j] < 0 && !profiled[j] {
				profiles[j] = e.prof.profileColumn(AttrRef{}, col, scratch)
				profiled[j] = true
			}
		}
	}
	profileChanged()
	subjectIdx := e.classifier.SubjectIndex(t)

	e.mu.Lock()
	defer e.mu.Unlock()
	if tid, ok = e.lake.IDByName(t.Name); !ok {
		return UpdateStats{}, notFound
	}
	keep = e.diffColumnsLocked(tid, t)
	profileChanged()
	var at *WriteIDs
	if attrAt != nil {
		at = &WriteIDs{Table: len(e.byTable), Attr: *attrAt}
	}
	ids, err := e.place(at)
	if err != nil {
		return UpdateStats{}, err
	}

	// The table's attribute list afterwards: kept ids, and for every
	// other column the id its fresh profile is about to get.
	attrs := make([]int, t.Arity())
	var fresh []Profile
	for j, attrID := range keep {
		if attrID < 0 {
			attrID = ids.Attr + len(fresh)
			p := profiles[j]
			p.Ref = AttrRef{TableID: tid, Column: j}
			p.Subject = j == subjectIdx
			fresh = append(fresh, p)
		}
		attrs[j] = attrID
	}
	kept := make(map[int]bool, len(keep))
	for _, attrID := range keep {
		kept[attrID] = true
	}
	oldAttrs := e.byTable[tid]
	var drop []int // old attribute ids losing their index entries
	for _, attrID := range oldAttrs {
		if !kept[attrID] {
			drop = append(drop, attrID)
		}
	}
	err = e.splice(e.fill(ids.Attr, tid, fresh), drop, func() error {
		e.lake.Replace(t)
		// Kept records move with their columns: in-place writes under
		// the write lock.
		for j, attrID := range keep {
			if attrID >= 0 {
				a := &e.attrs[attrID]
				a.column = int32(j)
				a.flags = a.flags&^attrSubject | flagIf(j == subjectIdx, attrSubject)
			}
		}
		e.byTable[tid] = attrs
		e.subjects[tid] = -1
		if subjectIdx >= 0 {
			e.subjects[tid] = attrs[subjectIdx]
		}
		return nil
	})
	if err != nil {
		return UpdateStats{}, err
	}

	stats := UpdateStats{TableID: tid, Reprofiled: len(fresh), Kept: t.Arity() - len(fresh)}
	oldNames := make(map[string]struct{}, len(oldAttrs))
	for _, attrID := range oldAttrs {
		oldNames[e.attrs[attrID].name] = struct{}{}
	}
	newNames := make(map[string]struct{}, t.Arity())
	for _, c := range t.Columns {
		newNames[c.Name] = struct{}{}
		if _, ok := oldNames[c.Name]; !ok {
			stats.Added++
		}
	}
	for name := range oldNames {
		if _, ok := newNames[name]; !ok {
			stats.Dropped++
		}
	}
	return stats, nil
}
