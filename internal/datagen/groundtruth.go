package datagen

import "sort"

// GroundTruth records, for every generated table, the domain lineage of
// each column. Two attributes are related (Definition 1) iff they carry
// the same lineage key; two tables are related iff they share at least
// one attribute-level relationship — exactly how the paper's Synthetic
// ground truth is recorded through the derivation procedure.
type GroundTruth struct {
	// lineage maps table name -> column index -> domain key ("" means
	// the column has no recorded domain).
	lineage map[string][]string
	// relatedCache caches the per-table related set.
	relatedCache map[string]map[string]bool
	// byDomain maps domain key -> table names carrying it.
	byDomain map[string][]string
}

// newGroundTruth builds the bookkeeping structure.
func newGroundTruth() *GroundTruth {
	return &GroundTruth{
		lineage:  make(map[string][]string),
		byDomain: make(map[string][]string),
	}
}

// record registers a table's per-column lineage.
func (g *GroundTruth) record(tableName string, lineage []string) {
	g.lineage[tableName] = lineage
	seen := map[string]bool{}
	for _, key := range lineage {
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		g.byDomain[key] = append(g.byDomain[key], tableName)
	}
	g.relatedCache = nil
}

// AttrsRelated reports whether column ca of table ta and column cb of
// table tb draw values from the same domain.
func (g *GroundTruth) AttrsRelated(ta string, ca int, tb string, cb int) bool {
	la, lb := g.lineage[ta], g.lineage[tb]
	if ca < 0 || cb < 0 || ca >= len(la) || cb >= len(lb) {
		return false
	}
	return la[ca] != "" && la[ca] == lb[cb]
}

// related builds (and caches) the per-table related sets.
func (g *GroundTruth) related() map[string]map[string]bool {
	if g.relatedCache != nil {
		return g.relatedCache
	}
	out := make(map[string]map[string]bool, len(g.lineage))
	for name, lin := range g.lineage {
		set := make(map[string]bool)
		for _, key := range lin {
			if key == "" {
				continue
			}
			for _, other := range g.byDomain[key] {
				if other != name {
					set[other] = true
				}
			}
		}
		out[name] = set
	}
	g.relatedCache = out
	return out
}

// TablesRelated reports whether two tables share a domain.
func (g *GroundTruth) TablesRelated(a, b string) bool {
	return g.related()[a][b]
}

// RelatedTo returns the sorted related-table set of a table.
func (g *GroundTruth) RelatedTo(tableName string) []string {
	set := g.related()[tableName]
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AnswerSize reports |RelatedTo| for a table.
func (g *GroundTruth) AnswerSize(tableName string) int {
	return len(g.related()[tableName])
}

// AvgAnswerSize reports the mean answer size over all tables (the
// paper reports 260 for Synthetic and 110 for Smaller Real).
func (g *GroundTruth) AvgAnswerSize() float64 {
	rel := g.related()
	if len(rel) == 0 {
		return 0
	}
	total := 0
	for _, set := range rel {
		total += len(set)
	}
	return float64(total) / float64(len(rel))
}

// Tables returns all recorded table names, sorted.
func (g *GroundTruth) Tables() []string {
	out := make([]string, 0, len(g.lineage))
	for name := range g.lineage {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
