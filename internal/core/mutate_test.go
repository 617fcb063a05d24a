package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// A mutation whose forest writes fail part-way must leave the engine as
// it found it: the same snapshot bytes, fingerprint, table and attribute
// counts, and answers. The first cases feed the mutation fresh profiles
// made by an engine with half the embedding width, so the I_N, I_V and
// I_F inserts of the first text column land before its I_E insert
// fails; the rest are refused for their name or their assigned ids.
func TestFailedMutationLeavesEngineUntouched(t *testing.T) {
	narrowOpts := testOptions()
	narrowOpts.EmbedBits = 128
	narrow, err := BuildEngine(figure1Lake(t), narrowOpts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(e *Engine) error
	}{
		{"add", func(e *Engine) error {
			tb := mustTable(t, "S4",
				[]string{"Surgery", "Town"},
				[][]string{{"Blackfriars", "Salford"}, {"Bolton Medical", "Bolton"}})
			_, err := e.AddProfiled(tb, mustPrepare(t, narrow, tb), nil)
			return err
		}},
		// The same add at ids past the engine's next ones: the fill
		// slots it would make must not outlive the failure.
		{"add at assigned ids", func(e *Engine) error {
			tb := mustTable(t, "S4", []string{"Surgery"}, [][]string{{"Blackfriars"}})
			_, err := e.AddProfiled(tb, mustPrepare(t, narrow, tb), &WriteIDs{Table: e.LakeLen() + 2, Attr: e.NumAttributes() + 5})
			return err
		}},
		{"update", func(e *Engine) error {
			// S1 with its City column rewritten: one changed text column,
			// profiled by the narrow engine's profiler.
			wide := e.prof
			e.prof = narrow.prof
			defer func() { e.prof = wide }()
			_, err := e.Update(mustTable(t, "S1",
				[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
				[][]string{
					{"Dr E Cullen", "51 Botanic Av", "Derry", "BT7 1JL", "1202"},
					{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
					{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2210"},
					{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "1894"},
				}))
			return err
		}},
		// The forest writes all succeed here; the lake refuses the name
		// afterwards, and every key written must come out again.
		{"add duplicate name", func(e *Engine) error {
			_, err := e.Add(figure1Lake(t).Table(1))
			return err
		}},
		{"add duplicate name at assigned ids", func(e *Engine) error {
			tb := figure1Lake(t).Table(1)
			_, err := e.AddProfiled(tb, mustPrepare(t, e, tb), &WriteIDs{Table: e.LakeLen() + 3, Attr: e.NumAttributes() + 4})
			return err
		}},
		// Assigned ids the engine refuses before it writes anything.
		{"add below the next ids", func(e *Engine) error {
			tb := mustTable(t, "S4", []string{"Surgery"}, [][]string{{"Blackfriars"}})
			_, err := e.AddProfiled(tb, mustPrepare(t, e, tb), &WriteIDs{Table: e.LakeLen() - 1, Attr: e.NumAttributes()})
			return err
		}},
		{"add past the fill bound", func(e *Engine) error {
			tb := mustTable(t, "S4", []string{"Surgery"}, [][]string{{"Blackfriars"}})
			_, err := e.AddProfiled(tb, mustPrepare(t, e, tb), &WriteIDs{Table: e.LakeLen(), Attr: e.NumAttributes() + maxFill + 1})
			return err
		}},
		{"update below the next attribute id", func(e *Engine) error {
			_, err := e.UpdateAt(figure1Lake(t).Table(1), -1)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := buildFigure1Engine(t)
			target := figure1Target(t)
			snap, fp, tables, attrs := snapshotBytes(t, e), e.Fingerprint(), e.LakeLen(), e.NumAttributes()
			answer, err := topK(e, target, 5)
			if err != nil {
				t.Fatal(err)
			}

			if err := tc.mutate(e); err == nil {
				t.Fatal("the mutation succeeded")
			}

			if !bytes.Equal(snapshotBytes(t, e), snap) {
				t.Error("snapshot bytes changed")
			}
			if e.Fingerprint() != fp {
				t.Error("fingerprint moved")
			}
			if got := e.LakeLen(); got != tables {
				t.Errorf("LakeLen %d -> %d", tables, got)
			}
			if got := e.NumAttributes(); got != attrs {
				t.Errorf("NumAttributes %d -> %d", attrs, got)
			}
			got, err := topK(e, target, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, answer) {
				t.Errorf("answer changed:\n got %+v\nwant %+v", got, answer)
			}
		})
	}
}

// TestFillBoundFollowsTheEngine: a write may land at most maxFill or the
// engine's own slot count past its next ids, whichever is larger. A
// shard whose peers took more than maxFill ids since its last write
// still catches up while it holds more slots than that; past both, the
// write is refused, naming the cause, and the engine is left as it was.
func TestFillBoundFollowsTheEngine(t *testing.T) {
	defer func(n int) { maxFill = n }(maxFill)
	maxFill = 1
	e := buildFigure1Engine(t)
	add := func(name string, at WriteIDs) error {
		tb := mustTable(t, name, []string{"Surgery"}, [][]string{{"Blackfriars"}})
		_, err := e.AddProfiled(tb, mustPrepare(t, e, tb), &at)
		return err
	}
	tables, attrs := e.LakeLen(), e.NumAttributes()
	if tables <= maxFill || attrs <= maxFill {
		t.Fatalf("engine of %d tables, %d attributes: a gap of its size is not past maxFill", tables, attrs)
	}
	if err := add("lag_within", WriteIDs{Table: 2 * tables, Attr: 2 * attrs}); err != nil {
		t.Fatalf("a gap of the engine's own size: %v", err)
	}
	tables, attrs = e.LakeLen(), e.NumAttributes()
	err := add("lag_past", WriteIDs{Table: tables, Attr: 2*attrs + 1})
	if !errors.Is(err, ErrWriteIDs) || !strings.Contains(err.Error(), "since its last write") {
		t.Fatalf("a gap past the engine's size: got %v, want ErrWriteIDs naming the lag", err)
	}
	if e.LakeLen() != tables || e.NumAttributes() != attrs {
		t.Fatalf("the refused write moved the slot counts: %d, %d -> %d, %d", tables, attrs, e.LakeLen(), e.NumAttributes())
	}
}
