package core

import (
	"errors"
	"testing"

	"d3l/internal/table"
)

// s1Attrs returns S1's attribute ids keyed by column name.
func attrsByName(t *testing.T, e *Engine, tid int) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, aid := range e.byTable[tid] {
		out[e.Profile(aid).Name] = aid
	}
	return out
}

// The headline delta property: updating one changed column of a
// C-column table re-profiles exactly that column. The other C-1 keep
// their attribute ids, profiles and forest keys.
func TestUpdateReprofilesExactlyChangedColumns(t *testing.T) {
	e := buildFigure1Engine(t)
	before := attrsByName(t, e, 0)

	// S1 with only the Patients column rewritten.
	mut := mustTable(t, "S1",
		[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
		[][]string{
			{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1300"},
			{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3601"},
			{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2255"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "1902"},
		})
	stats, err := e.Update(mut)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TableID != 0 {
		t.Fatalf("TableID = %d, want 0 (table keeps its id)", stats.TableID)
	}
	if stats.Reprofiled != 1 || stats.Kept != 4 || stats.Added != 0 || stats.Dropped != 0 {
		t.Fatalf("stats = %+v, want Reprofiled=1 Kept=4 Added=0 Dropped=0", stats)
	}

	after := attrsByName(t, e, 0)
	for _, name := range []string{"Practice Name", "Address", "City", "Postcode"} {
		if after[name] != before[name] {
			t.Errorf("unchanged column %q moved attr id %d -> %d", name, before[name], after[name])
		}
	}
	if after["Patients"] == before["Patients"] {
		t.Error("changed column Patients kept its attr id; it must be re-spliced under a fresh one")
	}
	// The old Patients attribute is tombstoned, not left answering probes.
	if p := e.Profile(before["Patients"]); !p.EZero {
		t.Error("old Patients profile was not reduced to a metadata stub")
	}
	// Subject classification survives the update.
	if s, ok := e.SubjectAttr(0); !ok || e.Profile(s).Name != "Practice Name" {
		t.Error("subject attr lost by update")
	}
	// The stored table is the new one.
	if got := e.Lake().Table(0).Columns[4].Values[0]; got != "1300" {
		t.Errorf("lake not updated in place: Patients[0] = %q", got)
	}
}

func TestUpdateNoOpKeepsEverythingButBumpsFingerprint(t *testing.T) {
	e := buildFigure1Engine(t)
	before := attrsByName(t, e, 0)
	fp := e.Fingerprint()
	attrsBefore := e.NumAttributes()

	stats, err := e.Update(figure1Lake(t).Table(0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reprofiled != 0 || stats.Kept != 5 || stats.Added != 0 || stats.Dropped != 0 {
		t.Fatalf("no-op stats = %+v", stats)
	}
	if got := attrsByName(t, e, 0); len(got) != len(before) {
		t.Fatalf("attr set changed: %v vs %v", got, before)
	} else {
		for name, aid := range before {
			if got[name] != aid {
				t.Errorf("no-op moved %q: %d -> %d", name, aid, got[name])
			}
		}
	}
	if e.NumAttributes() != attrsBefore {
		t.Errorf("no-op changed attribute count %d -> %d", attrsBefore, e.NumAttributes())
	}
	// Even a no-op must invalidate fingerprint-keyed caches: the caller
	// asked for a mutation and downstream caches cannot tell a no-op
	// from a real change.
	if e.Fingerprint() == fp {
		t.Error("no-op update did not bump the engine fingerprint")
	}
}

func TestUpdateAddAndDropColumns(t *testing.T) {
	e := buildFigure1Engine(t)
	before := attrsByName(t, e, 0)

	// Drop Patients, add Phone; the other four are byte-identical.
	mut := mustTable(t, "S1",
		[]string{"Practice Name", "Address", "City", "Postcode", "Phone"},
		[][]string{
			{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "028-9032"},
			{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "0161-834"},
			{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "0161-723"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "01204-52"},
		})
	stats, err := e.Update(mut)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reprofiled != 1 || stats.Kept != 4 || stats.Added != 1 || stats.Dropped != 1 {
		t.Fatalf("stats = %+v, want Reprofiled=1 Kept=4 Added=1 Dropped=1", stats)
	}
	after := attrsByName(t, e, 0)
	for _, name := range []string{"Practice Name", "Address", "City", "Postcode"} {
		if after[name] != before[name] {
			t.Errorf("unchanged column %q moved attr id", name)
		}
	}
	if _, ok := after["Patients"]; ok {
		t.Error("dropped column still attached to the table")
	}
	if p := e.Profile(before["Patients"]); !p.EZero {
		t.Error("dropped column's profile was not tombstoned")
	}
	if _, ok := after["Phone"]; !ok {
		t.Error("added column has no attribute")
	}
}

// Column order is part of a table's shape but not of a column's
// content: a pure permutation keeps every profile and forest key and
// only rewrites positions.
func TestUpdatePermutationReprofilesNothing(t *testing.T) {
	e := buildFigure1Engine(t)
	before := attrsByName(t, e, 0)
	orig := figure1Lake(t).Table(0)
	perm := []int{4, 0, 3, 1, 2}
	cols := make([]string, len(perm))
	rows := make([][]string, orig.Rows())
	for r := range rows {
		rows[r] = make([]string, len(perm))
	}
	for j, src := range perm {
		cols[j] = orig.Columns[src].Name
		for r := range rows {
			rows[r][j] = orig.Columns[src].Values[r]
		}
	}
	stats, err := e.Update(mustTable(t, "S1", cols, rows))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reprofiled != 0 || stats.Kept != 5 {
		t.Fatalf("permutation stats = %+v, want Reprofiled=0 Kept=5", stats)
	}
	after := attrsByName(t, e, 0)
	for name, aid := range before {
		if after[name] != aid {
			t.Errorf("permutation moved %q attr id %d -> %d", name, aid, after[name])
		}
	}
	// Positions did move: the profile Refs must track the new layout.
	for j, aid := range e.byTable[0] {
		if ref := e.Profile(aid).Ref; ref.Column != j || ref.TableID != 0 {
			t.Errorf("attr %d has Ref %+v, want column %d of table 0", aid, ref, j)
		}
	}
	if s, ok := e.SubjectAttr(0); !ok || e.Profile(s).Name != "Practice Name" {
		t.Error("subject attr lost by permutation")
	}
}

func TestUpdateUnknownTable(t *testing.T) {
	e := buildFigure1Engine(t)
	if _, err := e.Update(mustTable(t, "nope", []string{"a"}, [][]string{{"1"}})); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("err = %v, want ErrTableNotFound", err)
	}
	// A removed table is unknown too: its slot stays, its name does not.
	if err := e.Remove("S2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(mustTable(t, "S2", []string{"a"}, [][]string{{"1"}})); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("Update of a removed table: err = %v, want ErrTableNotFound", err)
	}
}

// Duplicate column names make name-keyed diffing ambiguous; the update
// must fall back to a full re-profile rather than guess.
func TestUpdateDuplicateNamesFullReprofile(t *testing.T) {
	e := buildFigure1Engine(t)
	dup := &table.Table{Name: "S3", Columns: []*table.Column{
		table.NewColumn("GP", []string{"Blackfriars", "Radclife Care", "Bolton Medical"}),
		table.NewColumn("GP", []string{"Salford", "-", "Bolton"}),
	}}
	stats, err := e.Update(dup)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reprofiled != 2 || stats.Kept != 0 {
		t.Fatalf("dup-name stats = %+v, want full re-profile", stats)
	}
}

// An updated table must answer queries: the probe path sees the new
// column content and not the old.
func TestUpdateVisibleToQueries(t *testing.T) {
	e := buildFigure1Engine(t)
	target := figure1Target(t)
	res, err := topK(e, target, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Name == "" {
		t.Fatal("baseline query empty")
	}

	// Replace S2 with an unrelated-domain table of the same name; it
	// should stop ranking near the top for the practice target.
	mut := mustTable(t, "S2",
		[]string{"Element", "Symbol", "Weight"},
		[][]string{
			{"Hydrogen", "H", "1.008"},
			{"Helium", "He", "4.002"},
			{"Lithium", "Li", "6.94"},
		})
	stats, err := e.Update(mut)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 0 || stats.Reprofiled != 3 {
		t.Fatalf("full replace stats = %+v", stats)
	}
	res2, err := topK(e, target, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res2 {
		if r.Name == "S2" {
			t.Fatal("gutted S2 still ranks in the top 2 for a practice target")
		}
	}
}
