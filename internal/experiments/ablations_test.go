package experiments

import (
	"strconv"
	"testing"
)

func TestAblationWeighting(t *testing.T) {
	env := tinyReal(t)
	rep, err := RunAblationWeighting(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2*len(env.Scale.Ks) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), 2*len(env.Scale.Ks))
	}
	// CCDF weighting should not be worse than uniform at the smallest k
	// by a wide margin (it is the paper's design choice).
	var ccdf, uniform float64
	k := strconv.Itoa(env.Scale.Ks[0])
	for _, row := range rep.Rows {
		if row[1] != k {
			continue
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "ccdf":
			ccdf = v
		case "uniform":
			uniform = v
		}
	}
	if ccdf+0.2 < uniform {
		t.Fatalf("ccdf precision %v far below uniform %v", ccdf, uniform)
	}
}

func TestAblationSampling(t *testing.T) {
	env := tinyReal(t)
	rep, err := RunAblationSampling(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 caps", len(rep.Rows))
	}
	if rep.Rows[0][0] != "full" {
		t.Fatalf("first row should be the full-extent run: %v", rep.Rows[0])
	}
}

func TestAblationEvidencePairs(t *testing.T) {
	env := tinyReal(t)
	rep, err := RunAblationEvidencePairs(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (full + 5 leave-one-out)", len(rep.Rows))
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several engine builds")
	}
	env := tinyReal(t)
	reps, err := RunAblations(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d reports, want 3", len(reps))
	}
}
