package core

import (
	"testing"
)

// TestParallelBuildDeterministic checks that BuildEngine produces
// identical indexes (and therefore identical rankings) at any
// parallelism setting.
func TestParallelBuildDeterministic(t *testing.T) {
	lake := figure1Lake(t)
	target := figure1Target(t)

	optsSeq := testOptions()
	optsSeq.Parallelism = 1
	seq, err := BuildEngine(lake, optsSeq)
	if err != nil {
		t.Fatal(err)
	}
	optsPar := testOptions()
	optsPar.Parallelism = 4
	par, err := BuildEngine(lake, optsPar)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumAttributes() != par.NumAttributes() {
		t.Fatalf("attribute counts differ: %d vs %d", seq.NumAttributes(), par.NumAttributes())
	}
	for id := 0; id < seq.NumAttributes(); id++ {
		a, b := seq.Profile(id), par.Profile(id)
		if a.Name != b.Name || a.Ref != b.Ref || a.Subject != b.Subject {
			t.Fatalf("profile %d metadata differs", id)
		}
		for i := range a.QSig {
			if a.QSig[i] != b.QSig[i] {
				t.Fatalf("profile %d QSig differs at %d", id, i)
			}
		}
		for i := range a.TSig {
			if a.TSig[i] != b.TSig[i] {
				t.Fatalf("profile %d TSig differs at %d", id, i)
			}
		}
	}
	rs, err := topK(seq, target, 5)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := topK(par, target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(rp) {
		t.Fatalf("result lengths differ: %d vs %d", len(rs), len(rp))
	}
	for i := range rs {
		if rs[i].Name != rp[i].Name || rs[i].Distance != rp[i].Distance {
			t.Fatalf("rank %d differs: %s@%v vs %s@%v", i, rs[i].Name, rs[i].Distance, rp[i].Name, rp[i].Distance)
		}
	}
}

func TestParallelismValidation(t *testing.T) {
	opts := testOptions()
	opts.Parallelism = -1
	if err := opts.Validate(); err == nil {
		t.Fatal("expected error for negative parallelism")
	}
}

// TestDefaultParallelism exercises the GOMAXPROCS path.
func TestDefaultParallelism(t *testing.T) {
	opts := testOptions()
	opts.Parallelism = 0
	if _, err := BuildEngine(figure1Lake(t), opts); err != nil {
		t.Fatal(err)
	}
}
