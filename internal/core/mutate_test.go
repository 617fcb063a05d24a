package core

import (
	"bytes"
	"reflect"
	"testing"
)

// A mutation whose forest writes fail part-way must leave the engine as
// it found it: the same snapshot bytes, fingerprint, table and attribute
// counts, and answers. Each case feeds the mutation fresh profiles made
// by an engine with half the embedding width, so the I_N, I_V and I_F
// inserts of the first text column land before its I_E insert fails.
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
			_, err := e.AddProfiled(tb, narrow.ProfileTarget(tb))
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
				t.Fatal("mutation with too-short embedding signatures succeeded")
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
