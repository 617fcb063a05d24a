package datagen

import (
	"strings"
	"testing"

	"d3l/internal/table"
)

func smallSynthetic(t testing.TB) (*table.Lake, *GroundTruth) {
	t.Helper()
	cfg := DefaultSyntheticConfig()
	cfg.BaseTables = 8
	cfg.DerivedTables = 60
	cfg.MinRows, cfg.MaxRows = 40, 80
	lake, gt, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lake, gt
}

func smallReal(t testing.TB) (*table.Lake, *GroundTruth) {
	t.Helper()
	cfg := DefaultRealConfig()
	cfg.ScenarioInstances = 3
	cfg.TablesPerInstance = 12
	cfg.MinEntities, cfg.MaxEntities = 40, 80
	lake, gt, err := Real(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lake, gt
}

func TestSyntheticShape(t *testing.T) {
	lake, gt := smallSynthetic(t)
	if lake.Len() != 60 {
		t.Fatalf("lake has %d tables, want 60", lake.Len())
	}
	for _, tb := range lake.Tables() {
		if tb.Arity() < 2 {
			t.Fatalf("table %s has arity %d, want >= 2", tb.Name, tb.Arity())
		}
		if tb.Rows() < 1 {
			t.Fatalf("table %s has no rows", tb.Name)
		}
		if len(gt.lineage[tb.Name]) != tb.Arity() {
			t.Fatalf("table %s lineage arity mismatch", tb.Name)
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.BaseTables, cfg.DerivedTables = 4, 10
	cfg.MinRows, cfg.MaxRows = 20, 30
	l1, _, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l1.Len(); i++ {
		a, b := l1.Table(i), l2.Table(i)
		if a.Name != b.Name || a.Arity() != b.Arity() || a.Rows() != b.Rows() {
			t.Fatal("generation not deterministic")
		}
		if a.Columns[0].Values[0] != b.Columns[0].Values[0] {
			t.Fatal("values not deterministic")
		}
	}
}

func TestSyntheticGroundTruthSameBaseRelated(t *testing.T) {
	lake, gt := smallSynthetic(t)
	// Tables derived from the same base share its domains: every table
	// name encodes its base ("baseNN_dMMMM").
	byBase := map[string][]string{}
	for _, tb := range lake.Tables() {
		base := strings.SplitN(tb.Name, "_", 2)[0]
		byBase[base] = append(byBase[base], tb.Name)
	}
	checked := 0
	for _, names := range byBase {
		for i := 1; i < len(names); i++ {
			if !gt.TablesRelated(names[0], names[i]) {
				// Only unrelated if the projections share no columns —
				// possible but rare; require most same-base pairs to be
				// related below.
				continue
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no same-base related pairs found")
	}
	// Cross-base tables are never related.
	var bases []string
	for b := range byBase {
		bases = append(bases, b)
	}
	if len(bases) >= 2 {
		a := byBase[bases[0]][0]
		b := byBase[bases[1]][0]
		if gt.TablesRelated(a, b) {
			t.Fatalf("cross-base tables %s and %s should be unrelated", a, b)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := DefaultSyntheticConfig()
	bad.BaseTables = 0
	if _, _, err := Synthetic(bad); err == nil {
		t.Fatal("expected error for zero bases")
	}
	bad = DefaultSyntheticConfig()
	bad.MinRows, bad.MaxRows = 10, 5
	if _, _, err := Synthetic(bad); err == nil {
		t.Fatal("expected error for inverted row bounds")
	}
}

func TestRealShapeAndDirtiness(t *testing.T) {
	lake, gt := smallReal(t)
	if lake.Len() != 36 {
		t.Fatalf("lake has %d tables, want 36", lake.Len())
	}
	// Same-instance tables are related.
	rel := gt.RelatedTo(lake.Table(0).Name)
	if len(rel) == 0 {
		t.Fatal("first table has no related tables")
	}
	// Average answer size ~ TablesPerInstance-1.
	if avg := gt.AvgAnswerSize(); avg < 5 || avg > 12 {
		t.Fatalf("avg answer size %v, want ≈ 11", avg)
	}
	// Dirtiness shows up: across the lake some values carry currency
	// marks, abbreviations, or case rewrites.
	markers := 0
	for _, tb := range lake.Tables() {
		for _, col := range tb.Columns {
			for _, v := range col.Values {
				if strings.HasPrefix(v, "£") || strings.Contains(v, " St") ||
					v != "" && v == strings.ToUpper(v) && strings.ContainsAny(v, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") && len(v) > 4 {
					markers++
				}
			}
		}
	}
	if markers == 0 {
		t.Fatal("no dirtiness markers found in Real lake")
	}
}

func TestRealHasNumericColumns(t *testing.T) {
	lake, _ := smallReal(t)
	numeric := 0
	total := 0
	for _, tb := range lake.Tables() {
		for _, col := range tb.Columns {
			total++
			if col.Type == table.Numeric {
				numeric++
			}
		}
	}
	frac := float64(numeric) / float64(total)
	if frac < 0.1 || frac > 0.7 {
		t.Fatalf("numeric column fraction %v, want realistic ratio (Fig. 2c)", frac)
	}
}

func TestRealValidation(t *testing.T) {
	bad := DefaultRealConfig()
	bad.ScenarioInstances = 0
	if _, _, err := Real(bad); err == nil {
		t.Fatal("expected error")
	}
	bad = DefaultRealConfig()
	bad.MaxDirt = 2
	if _, _, err := Real(bad); err == nil {
		t.Fatal("expected error for MaxDirt > 1")
	}
}

func TestLarger(t *testing.T) {
	cfg := DefaultLargerConfig()
	cfg.Tables = 55
	cfg.TablesPerInstance = 10
	cfg.MinEntities, cfg.MaxEntities = 30, 50
	lake, _, err := Larger(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lake.Len() != 55 {
		t.Fatalf("lake has %d tables, want 55", lake.Len())
	}
	bad := cfg
	bad.Tables = 0
	if _, _, err := Larger(bad); err == nil {
		t.Fatal("expected error for zero tables")
	}
}

func TestPickTargets(t *testing.T) {
	lake, gt := smallSynthetic(t)
	targets := PickTargets(lake, gt, 10, 7)
	if len(targets) != 10 {
		t.Fatalf("picked %d targets, want 10", len(targets))
	}
	seen := map[string]bool{}
	for _, name := range targets {
		if seen[name] {
			t.Fatal("duplicate target")
		}
		seen[name] = true
		if lake.ByName(name) == nil {
			t.Fatalf("target %s not in lake", name)
		}
		if gt.AnswerSize(name) < 1 {
			t.Fatalf("target %s has empty answer", name)
		}
	}
	// Deterministic.
	again := PickTargets(lake, gt, 10, 7)
	for i := range targets {
		if targets[i] != again[i] {
			t.Fatal("PickTargets not deterministic")
		}
	}
}

func TestGroundTruthAttrRelations(t *testing.T) {
	gt := newGroundTruth()
	gt.record("A", []string{"s0/name", "s0/city"})
	gt.record("B", []string{"s0/city", "s1/other"})
	gt.record("C", []string{"s1/other"})
	if !gt.AttrsRelated("A", 1, "B", 0) {
		t.Fatal("A.city and B.city should be related")
	}
	if gt.AttrsRelated("A", 0, "B", 0) {
		t.Fatal("A.name and B.city should not be related")
	}
	if gt.AttrsRelated("A", 9, "B", 0) {
		t.Fatal("out-of-range column should be unrelated")
	}
	if !gt.TablesRelated("A", "B") || !gt.TablesRelated("B", "C") || gt.TablesRelated("A", "C") {
		t.Fatal("table relations wrong")
	}
	if gt.AnswerSize("A") != 1 {
		t.Fatal("answer size wrong")
	}
}

func TestVocabGenerators(t *testing.T) {
	r := newRNG(1)
	if pc := postcode(r); len(pc) < 5 || !strings.Contains(pc, " ") {
		t.Fatalf("postcode format wrong: %q", pc)
	}
	if oh := openingHours(r); !strings.Contains(oh, ":") || !strings.Contains(oh, "-") {
		t.Fatalf("hours format wrong: %q", oh)
	}
	if d := dateISO(r); len(d) != 10 {
		t.Fatalf("ISO date wrong: %q", d)
	}
	if d := dateUK(r); len(d) != 10 || strings.Count(d, "/") != 2 {
		t.Fatalf("UK date wrong: %q", d)
	}
	if e := email(r, "Jane Doe"); !strings.Contains(e, "@") || !strings.HasPrefix(e, "jane.doe") {
		t.Fatalf("email wrong: %q", e)
	}
	if v := vehicleReg(r); len(v) != 8 {
		t.Fatalf("vehicle reg wrong: %q", v)
	}
	cities := cityPool(newRNG(2), 50)
	seen := map[string]bool{}
	for _, c := range cities {
		if seen[c] {
			t.Fatal("duplicate city in pool")
		}
		seen[c] = true
	}
}

func TestDirtyHelpers(t *testing.T) {
	r := newRNG(3)
	// At level 0 values are untouched.
	if dirtyText(r, "Blackfriars Medical Centre", 0) != "Blackfriars Medical Centre" {
		t.Fatal("level 0 must not change text")
	}
	if dirtyNumeric(r, "1234.56", "money", 0) != "1234.56" {
		t.Fatal("level 0 must not change numbers")
	}
	// At level 1 some rewriting happens eventually.
	changed := false
	for i := 0; i < 50; i++ {
		if dirtyText(r, "Blackfriars Medical Centre", 1) != "Blackfriars Medical Centre" {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("level 1 should rewrite at least sometimes")
	}
	if withThousands("1234567") != "1,234,567" {
		t.Fatalf("withThousands wrong: %q", withThousands("1234567"))
	}
	if withThousands("123") != "123" {
		t.Fatal("short numbers unchanged")
	}
	if withThousands("1234.5") != "1,234.5" {
		t.Fatalf("fraction handling wrong: %q", withThousands("1234.5"))
	}
	if abbreviate("Oak Street") != "Oak St" {
		t.Fatal("abbreviate wrong")
	}
}
