package experiments

import (
	"context"
	"fmt"
	"io"

	"d3l/internal/core"
	"d3l/internal/stats"
	"d3l/internal/table"
)

// RunFig2 reproduces Figure 2: arity, cardinality and data-type
// statistics of the two effectiveness repositories.
func RunFig2(synth, real *Env) (Report, error) {
	rep := Report{
		ID:     "fig2",
		Title:  "Repository statistics (arity, cardinality, data types)",
		Note:   "scale=" + synth.Scale.Label,
		Header: []string{"repository", "tables", "arity p50/p95", "cardinality p50/p95", "numeric attrs"},
	}
	for _, e := range []*Env{synth, real} {
		var arity, card []float64
		numeric, total := 0, 0
		for _, t := range e.Lake.Tables() {
			arity = append(arity, float64(t.Arity()))
			card = append(card, float64(t.Rows()))
			for _, c := range t.Columns {
				total++
				if c.Type == table.Numeric {
					numeric++
				}
			}
		}
		aSum, err := stats.Describe(arity)
		if err != nil {
			return Report{}, err
		}
		cSum, err := stats.Describe(card)
		if err != nil {
			return Report{}, err
		}
		rep.Rows = append(rep.Rows, []string{
			e.Kind,
			itoa(e.Lake.Len()),
			fmt.Sprintf("%.0f/%.0f", aSum.P50, aSum.P95),
			fmt.Sprintf("%.0f/%.0f", cSum.P50, cSum.P95),
			fmt.Sprintf("%.0f%%", 100*float64(numeric)/float64(total)),
		})
	}
	return rep, nil
}

// RunTableI reproduces Table I: the per-pair evidence distances between
// the paper's Figure 1 target T and source S2, computed by the real
// pipeline over the Figure 1 fixture tables.
func RunTableI() (Report, error) {
	lake, target, err := Figure1Fixture()
	if err != nil {
		return Report{}, err
	}
	opts := core.DefaultOptions()
	eng, err := core.BuildEngine(lake, opts)
	if err != nil {
		return Report{}, err
	}
	prepared, err := eng.Prepare(target)
	if err != nil {
		return Report{}, err
	}
	rows, err := eng.Explain(context.Background(), prepared, "S2", core.QuerySpec{K: 1})
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "tab1",
		Title:  "Example distances for T and S2 (Figure 1 fixture)",
		Note:   "computed, not hypothetical: expect DN=0 on identical names, DD=1 on textual pairs",
		Header: []string{"pair", "DN", "DV", "DF", "DE", "DD"},
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, []string{
			"(T." + r.TargetColumn + ", S2." + r.SourceColumn + ")",
			f2(r.Distances[core.EvidenceName]),
			f2(r.Distances[core.EvidenceValue]),
			f2(r.Distances[core.EvidenceFormat]),
			f2(r.Distances[core.EvidenceEmbedding]),
			f2(r.Distances[core.EvidenceDomain]),
		})
	}
	return rep, nil
}

// Figure1Fixture builds the paper's Figure 1 tables: lake {S1, S2, S3}
// and target T. Shared by Table I, the quickstart example and tests.
func Figure1Fixture() (*table.Lake, *table.Table, error) {
	lake := table.NewLake()
	s1, err := table.New("S1",
		[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
		[][]string{
			{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"},
			{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
			{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2210"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "1894"},
		})
	if err != nil {
		return nil, nil, err
	}
	s2, err := table.New("S2",
		[]string{"Practice", "City", "Postcode", "Payment"},
		[][]string{
			{"The London Clinic", "London", "W1G 6BW", "73648"},
			{"Blackfriars", "Salford", "M3 6AF", "15530"},
			{"Radclife Care", "Manchester", "M26 2SP", "20081"},
			{"Bolton Medical", "Bolton", "BL3 6PY", "17264"},
		})
	if err != nil {
		return nil, nil, err
	}
	s3, err := table.New("S3",
		[]string{"GP", "Location", "Opening hours"},
		[][]string{
			{"Blackfriars", "Salford", "08:00-18:00"},
			{"Radclife Care", "-", "07:00-20:00"},
			{"Bolton Medical", "Bolton", "08:00-16:00"},
		})
	if err != nil {
		return nil, nil, err
	}
	for _, t := range []*table.Table{s1, s2, s3} {
		if _, err := lake.Add(t); err != nil {
			return nil, nil, err
		}
	}
	target, err := table.New("T",
		[]string{"Practice", "Street", "City", "Postcode", "Hours"},
		[][]string{
			{"Radclife", "69 Church St", "Manchester", "M26 2SP", "07:00-20:00"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "08:00-16:00"},
		})
	if err != nil {
		return nil, nil, err
	}
	return lake, target, nil
}

// RunAll executes every experiment at the given scale, writing each
// report to w as it completes. It is the `d3l exp all` entry point and
// the generator of EXPERIMENTS.md numbers.
func RunAll(w io.Writer, scale Scale) error {
	synth, err := NewSyntheticEnv(scale)
	if err != nil {
		return err
	}
	real, err := NewRealEnv(scale)
	if err != nil {
		return err
	}
	emit := func(rep Report, err error) error {
		if err != nil {
			return err
		}
		_, werr := fmt.Fprintln(w, rep.String())
		return werr
	}
	if err := emit(RunFig2(synth, real)); err != nil {
		return err
	}
	if err := emit(RunTableI()); err != nil {
		return err
	}
	if err := emit(RunExp1(real)); err != nil {
		return err
	}
	if err := emit(RunExp2(synth)); err != nil {
		return err
	}
	if err := emit(RunExp3(real)); err != nil {
		return err
	}
	if err := emit(RunExp4(scale)); err != nil {
		return err
	}
	if err := emit(RunExp5(synth)); err != nil {
		return err
	}
	if err := emit(RunExp6(real)); err != nil {
		return err
	}
	if err := emit(RunExp7(synth, real)); err != nil {
		return err
	}
	if err := emit(RunExp8(synth)); err != nil {
		return err
	}
	if err := emit(RunExp9(synth)); err != nil {
		return err
	}
	if err := emit(RunExp10(real)); err != nil {
		return err
	}
	if err := emit(RunExp11(real)); err != nil {
		return err
	}
	if err := emit(TrainedWeightsReport(synth)); err != nil {
		return err
	}
	return nil
}
