package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"d3l"
)

// ranked is the part of an answer correctness is judged on: the names
// and Eq. 3 distances of the top-k, in rank order.
type ranked struct {
	Name     string  `json:"name"`
	Distance float64 `json:"distance"`
}

// answer is the part of a /v1/query response the benchmark reads.
type answer struct {
	Results []ranked `json:"results"`
}

// oracle is the in-process reference: the library's monolithic engine
// built by d3l.New on the generated lake, queried directly. It shares
// nothing with the system under test but the lake — not the CSV files,
// not `d3l index build`, not a snapshot, not the shard set — so a defect
// in any of those shows as a wrong answer. That holds for the sharded
// topology too: scatter-gather answers are the monolith's by contract.
// An HTTP answer must match exactly — encoding/json round-trips
// float64, so distances compare with ==.
type oracle struct {
	eng *d3l.Engine
}

// newOracle generates the lake once more and indexes it: replaying
// writes mutates the lake under the engine, and the run's own copy is
// still needed unchanged by the traced half.
func newOracle(tables int) (*oracle, error) {
	lake, _, err := syntheticLake(tables)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	eng, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{eng: eng}, nil
}

func toTable(t tableJSON) (*d3l.Table, error) {
	return d3l.NewTable(t.Name, t.Columns, t.Rows)
}

// opTable decodes the table an op carries.
func opTable(o *op) (*d3l.Table, error) {
	var req tableRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return nil, err
	}
	return toTable(req.Table)
}

// expect replays ops in order against the reference engine — writes
// mutate it, reads are answered by it — and returns the reference
// ranking of every read slot (nil for write slots). Each run of
// consecutive reads is answered as one batch, one query per distinct
// request body.
func (or *oracle) expect(ops []op) ([][]ranked, error) {
	want := make([][]ranked, len(ops))
	ctx := context.Background()
	for i := 0; i < len(ops); {
		o := &ops[i]
		if o.write {
			if err := or.apply(o); err != nil {
				return nil, fmt.Errorf("oracle: slot %d: %w", i, err)
			}
			i++
			continue
		}
		j := i
		var targets []*d3l.Table
		index := map[string]int{} // request body -> position in targets
		for ; j < len(ops) && !ops[j].write; j++ {
			if _, ok := index[string(ops[j].body)]; ok {
				continue
			}
			t, err := opTable(&ops[j])
			if err != nil {
				return nil, fmt.Errorf("oracle: slot %d: %w", j, err)
			}
			index[string(ops[j].body)] = len(targets)
			targets = append(targets, t)
		}
		answers, err := or.eng.QueryBatch(ctx, targets, d3l.WithK(queryK))
		if err != nil {
			return nil, fmt.Errorf("oracle: slots %d-%d: %w", i, j-1, err)
		}
		for s := i; s < j; s++ {
			a := answers[index[string(ops[s].body)]]
			rs := make([]ranked, len(a.Results))
			for r, res := range a.Results {
				rs[r] = ranked{Name: res.Name, Distance: res.Distance}
			}
			want[s] = rs
		}
		i = j
	}
	return want, nil
}

func (or *oracle) apply(o *op) error {
	switch o.method {
	case "DELETE":
		return or.eng.Remove(scratchName)
	case "POST", "PUT":
		t, err := opTable(o)
		if err != nil {
			return err
		}
		if o.method == "POST" {
			_, err = or.eng.Add(t)
		} else {
			_, err = or.eng.Update(t)
		}
		return err
	}
	return fmt.Errorf("unexpected write method %s", o.method)
}

// diff compares one HTTP answer body with the reference ranking; ""
// means they agree.
func diff(body []byte, want []ranked) string {
	var got answer
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&got); err != nil {
		return "undecodable answer: " + err.Error()
	}
	if len(got.Results) != len(want) {
		return fmt.Sprintf("answer has %d results, reference has %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			return fmt.Sprintf("rank %d is %s at %v, reference is %s at %v",
				i+1, got.Results[i].Name, got.Results[i].Distance, want[i].Name, want[i].Distance)
		}
	}
	return ""
}

// verify checks every retained pass-0 answer of a phase against the
// oracle and returns one message per wrong answer.
func (or *oracle) verify(ph *phaseResult) ([]string, error) {
	want, err := or.expect(ph.ops)
	if err != nil {
		return nil, err
	}
	var wrong []string
	for i, body := range ph.first {
		if body == nil {
			continue // a write slot, or an op already counted as failed
		}
		if msg := diff(body, want[i]); msg != "" {
			wrong = append(wrong, fmt.Sprintf("slot %d (target of %s): %s", i, ph.ops[i].source, msg))
		}
	}
	return wrong, nil
}

// quality scores the retained pass-0 answers against the generator's
// ground truth: mean precision and recall at k over the distinct
// sources queried, the source table itself excluded from the answer
// (a window of a lake table trivially finds that table).
func quality(in *inputs, ph *phaseResult) (precision, recall float64, n int) {
	seen := map[string]bool{}
	for i, body := range ph.first {
		src := ph.ops[i].source
		if body == nil || seen[src] {
			continue
		}
		seen[src] = true
		var got answer
		if json.Unmarshal(body, &got) != nil {
			continue
		}
		name := src
		related := map[string]bool{}
		for _, r := range in.gt.RelatedTo(name) {
			related[r] = true
		}
		delete(related, name)
		tp, returned := 0, 0
		for _, r := range got.Results {
			if r.Name == name {
				continue
			}
			returned++
			if related[r.Name] {
				tp++
			}
		}
		if returned > 0 {
			precision += float64(tp) / float64(returned)
		}
		if len(related) > 0 {
			recall += float64(tp) / float64(len(related))
		}
		n++
	}
	if n > 0 {
		precision /= float64(n)
		recall /= float64(n)
	}
	return precision, recall, n
}
