// Package aurum reimplements the Aurum baseline (Castro Fernandez,
// Abedjan, Koko, Yuan, Madden, Stonebraker; ICDE 2018) that D3L's
// evaluation compares against, following the two-step architecture of
// the original (github.com/mitdbg/aurum-datadiscovery):
//
//  1. a profiling stage summarises every attribute (name token set,
//     MinHash over raw values, TF/IDF top terms, uniqueness);
//  2. a graph-building stage links profile nodes into an enterprise
//     knowledge graph (EKG) with content-similarity, schema-similarity
//     and PK/FK-candidate edges, the latter from uniqueness plus
//     estimated inclusion.
//
// Queries are graph traversals: the LSH indexes are consulted once to
// seed target attributes into the graph, then results come from the
// seeded nodes and their neighbours. Ranking uses the certainty
// strategy D3L's evaluation selected (footnote 4): the maximum
// similarity score across evidence types. Like TUS, Aurum's content
// evidence hashes whole values, so inconsistent representations weaken
// it on dirty lakes, and its name/TF-IDF evidence is coarser than
// D3L's q-gram features — the behaviours Experiments 2–3 report.
package aurum

import (
	"fmt"
	"sort"
	"strings"

	"d3l/internal/lsh"
	"d3l/internal/minhash"
	"d3l/internal/table"
	"d3l/internal/tokenize"
)

// Options configure the Aurum baseline.
type Options struct {
	// MinHashSize is the signature width (256 in the evaluation).
	MinHashSize int
	// Threshold is the LSH/edge threshold (0.7 in the evaluation).
	Threshold float64
	// Seed drives the hash families.
	Seed uint64
	// KeyUniqueness is the distinct-fraction floor for PK/FK candidate
	// endpoints (Aurum uses approximate uniqueness from profiles).
	KeyUniqueness float64
	// InclusionFloor is the estimated overlap-coefficient floor for a
	// PK/FK edge.
	InclusionFloor float64
	// CandidateBudget caps per-attribute LSH candidates.
	CandidateBudget int
	// TopTerms is how many TF/IDF terms feed the schema signature.
	TopTerms int
}

// DefaultOptions mirrors the evaluation configuration.
func DefaultOptions() Options {
	return Options{
		MinHashSize:    256,
		Threshold:      0.7,
		Seed:           0xc0ffee1234,
		KeyUniqueness:  0.85,
		InclusionFloor: 0.6,
		TopTerms:       16,
	}
}

// profile is one EKG node.
type profile struct {
	tableID  int
	column   int
	name     string
	numeric  bool
	nameSig  minhash.Signature // name token set
	valSig   minhash.Signature // raw value set
	termSig  minhash.Signature // TF/IDF top terms
	distinct float64           // distinct fraction (uniqueness proxy)
	setSize  int               // distinct value count
}

// edgeKind labels EKG edges.
type edgeKind int

const (
	edgeContent edgeKind = iota
	edgeSchema
	edgePKFK
)

// edge is one EKG relationship.
type edge struct {
	to     int // profile id
	kind   edgeKind
	weight float64
}

// System is a built Aurum EKG over a lake.
type System struct {
	opts     Options
	lake     *table.Lake
	hasher   *minhash.Hasher
	profiles []profile
	byTable  [][]int
	adj      [][]edge

	forestVal  *lsh.Forest
	forestName *lsh.Forest
}

// Build runs profiling and graph construction (the stage Experiment 4
// times; graph building dominates, as the paper observes).
func Build(lake *table.Lake, opts Options) (*System, error) {
	if lake == nil {
		return nil, fmt.Errorf("aurum: nil lake")
	}
	if opts.MinHashSize <= 0 || opts.Threshold <= 0 || opts.Threshold >= 1 {
		return nil, fmt.Errorf("aurum: invalid options %+v", opts)
	}
	if opts.TopTerms <= 0 {
		opts.TopTerms = 16
	}
	hasher, err := minhash.NewHasher(opts.MinHashSize, opts.Seed)
	if err != nil {
		return nil, err
	}
	s := &System{
		opts:    opts,
		lake:    lake,
		hasher:  hasher,
		byTable: make([][]int, lake.Len()),
	}
	s.forestVal = lsh.MustForest(8, opts.MinHashSize/8)
	s.forestName = lsh.MustForest(8, opts.MinHashSize/8)

	// Stage 1: profiling.
	for tid, t := range lake.Tables() {
		for c, col := range t.Columns {
			p := s.profileColumn(tid, c, col)
			id := len(s.profiles)
			s.profiles = append(s.profiles, p)
			s.byTable[tid] = append(s.byTable[tid], id)
			if !p.numeric {
				if err := s.forestVal.Add(int32(id), p.valSig); err != nil {
					return nil, err
				}
			}
			if err := s.forestName.Add(int32(id), p.nameSig); err != nil {
				return nil, err
			}
		}
	}
	s.forestVal.Index()
	s.forestName.Index()

	// Stage 2: EKG construction.
	s.adj = make([][]edge, len(s.profiles))
	budget := opts.CandidateBudget
	if budget == 0 {
		budget = 128
	}
	for id := range s.profiles {
		p := &s.profiles[id]
		if p.numeric {
			continue
		}
		cands, err := s.forestVal.Query(p.valSig, budget)
		if err != nil {
			continue
		}
		for _, cid := range cands {
			if int(cid) <= id { // undirected, build once
				continue
			}
			q := &s.profiles[cid]
			if q.tableID == p.tableID {
				continue
			}
			sim := sigSim(p.valSig, q.valSig)
			if sim >= opts.Threshold {
				s.addEdge(id, int(cid), edgeContent, sim)
			}
			// PK/FK candidates: one unique endpoint plus estimated
			// inclusion.
			if ov := overlapEstimate(p, q, sim); ov >= opts.InclusionFloor &&
				(p.distinct >= opts.KeyUniqueness || q.distinct >= opts.KeyUniqueness) {
				s.addEdge(id, int(cid), edgePKFK, ov)
			}
		}
	}
	// Schema edges from name similarity.
	for id := range s.profiles {
		p := &s.profiles[id]
		cands, err := s.forestName.Query(p.nameSig, budget)
		if err != nil {
			continue
		}
		for _, cid := range cands {
			if int(cid) <= id {
				continue
			}
			q := &s.profiles[cid]
			if q.tableID == p.tableID {
				continue
			}
			if sim := sigSim(p.nameSig, q.nameSig); sim >= opts.Threshold {
				s.addEdge(id, int(cid), edgeSchema, sim)
			}
		}
	}
	return s, nil
}

func (s *System) addEdge(a, b int, kind edgeKind, w float64) {
	s.adj[a] = append(s.adj[a], edge{to: b, kind: kind, weight: w})
	s.adj[b] = append(s.adj[b], edge{to: a, kind: kind, weight: w})
}

// profileColumn builds one node profile. Aurum's TF/IDF evidence keeps
// the most informative terms: we take the lowest-document-frequency
// tokens of the extent.
func (s *System) profileColumn(tid, cIdx int, col *table.Column) profile {
	p := profile{
		tableID: tid,
		column:  cIdx,
		name:    col.Name,
		numeric: col.Type == table.Numeric,
	}
	p.nameSig = s.hasher.Sketch(tokenize.Words(strings.ReplaceAll(col.Name, "_", " ")))
	values := col.NonNull()
	distinct := make(map[string]struct{}, len(values))
	raw := make([]string, len(values))
	for i, v := range values {
		lv := strings.ToLower(strings.TrimSpace(v))
		raw[i] = lv
		distinct[lv] = struct{}{}
	}
	p.valSig = s.hasher.Sketch(raw)
	p.setSize = len(distinct)
	if len(values) > 0 {
		p.distinct = float64(len(distinct)) / float64(len(values))
	}
	// TF/IDF top terms: rarest tokens across the extent.
	hist := tokenize.NewHistogram()
	for _, v := range values {
		hist.Insert(tokenize.Tokens(v))
	}
	inf := hist.Infrequent()
	sort.Strings(inf)
	if len(inf) > s.opts.TopTerms {
		inf = inf[:s.opts.TopTerms]
	}
	p.termSig = s.hasher.Sketch(inf)
	return p
}

// overlapEstimate approximates the overlap coefficient from Jaccard and
// set sizes (inclusion–exclusion).
func overlapEstimate(a, b *profile, jaccard float64) float64 {
	if a.setSize == 0 || b.setSize == 0 {
		return 0
	}
	inter := jaccard * float64(a.setSize+b.setSize) / (1 + jaccard)
	m := float64(a.setSize)
	if b.setSize < a.setSize {
		m = float64(b.setSize)
	}
	ov := inter / m
	if ov > 1 {
		return 1
	}
	if ov < 0 {
		return 0
	}
	return ov
}

func sigSim(a, b minhash.Signature) float64 {
	if a.Empty() || b.Empty() {
		return 0
	}
	sim, err := minhash.Similarity(a, b)
	if err != nil {
		return 0
	}
	return sim
}

// Ranked is one table of the Aurum answer.
type Ranked struct {
	TableID int
	Name    string
	// Score is the certainty (max similarity) ranking value.
	Score float64
	// Alignments maps target columns to matched candidate columns.
	Alignments map[int][]int
}

// alignFloor is the seed score above which an alignment is reported.
const alignFloor = 0.35

// TopK answers a discovery query: seed the target's attributes into the
// EKG via one round of LSH lookups, expand one hop over graph edges,
// and rank tables by certainty. The traversal (not k) bounds the work,
// which is why Aurum's search time is k-independent (Experiments 5–6).
func (s *System) TopK(target *table.Table, k int) ([]Ranked, error) {
	if target == nil {
		return nil, fmt.Errorf("aurum: nil target")
	}
	if k <= 0 {
		return nil, fmt.Errorf("aurum: k must be positive, got %d", k)
	}
	_, best, aligns := s.seedAndExpand(target)
	out := make([]Ranked, 0, len(best))
	for tid, score := range best {
		out = append(out, Ranked{TableID: tid, Name: s.lake.Table(tid).Name, Score: score, Alignments: aligns[tid]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// seedAndExpand is the query core shared by TopK and the join variant.
// Per target column the best (certainty/max) pair score is found; a
// table's overall score sums its per-column certainties, which is what
// makes Aurum's ranking favour the quantity of covered target
// attributes (the behaviour Experiment 8 highlights).
func (s *System) seedAndExpand(target *table.Table) (map[int]float64, map[int]float64, map[int]map[int][]int) {
	seedScore := make(map[int]float64) // profile id -> best seed score
	best := make(map[int]float64)      // table id -> summed certainty
	aligns := make(map[int]map[int][]int)
	if target == nil {
		return seedScore, best, aligns
	}
	budget := s.opts.CandidateBudget
	if budget == 0 {
		budget = 128
	}
	for cIdx, col := range target.Columns {
		qp := s.profileColumn(-1, cIdx, col)
		seen := make(map[int32]struct{})
		if !qp.numeric {
			if ids, err := s.forestVal.Query(qp.valSig, budget); err == nil {
				for _, id := range ids {
					seen[id] = struct{}{}
				}
			}
		}
		if ids, err := s.forestName.Query(qp.nameSig, budget); err == nil {
			for _, id := range ids {
				seen[id] = struct{}{}
			}
		}
		colBest := make(map[int]float64) // table id -> best score this column
		for id := range seen {
			cand := &s.profiles[id]
			score := sigSim(qp.valSig, cand.valSig)
			if n := sigSim(qp.nameSig, cand.nameSig); n > score {
				score = n
			}
			if t := sigSim(qp.termSig, cand.termSig); t > score {
				score = t
			}
			if score <= 0 {
				continue
			}
			if score > seedScore[int(id)] {
				seedScore[int(id)] = score
			}
			if score > colBest[cand.tableID] {
				colBest[cand.tableID] = score
			}
			// One-hop graph expansion: neighbours inherit a discounted
			// certainty along EKG edges.
			for _, e := range s.adj[id] {
				n := &s.profiles[e.to]
				if propagated := score * e.weight * 0.9; propagated > colBest[n.tableID] {
					colBest[n.tableID] = propagated
				}
			}
			if score >= alignFloor {
				m := aligns[cand.tableID]
				if m == nil {
					m = make(map[int][]int)
					aligns[cand.tableID] = m
				}
				m[cIdx] = append(m[cIdx], cand.column)
			}
		}
		for tid, sc := range colBest {
			best[tid] += sc
		}
	}
	return seedScore, best, aligns
}

// ColumnMatches reports, for one lake table, which target columns it
// can populate according to Aurum's own evidence (per-pair certainty at
// the alignment floor). The Aurum+J coverage experiments use it to
// score join-contributed tables.
func (s *System) ColumnMatches(target *table.Table, tableID int) map[int][]int {
	out := make(map[int][]int)
	if target == nil || tableID < 0 || tableID >= len(s.byTable) {
		return out
	}
	for cIdx, col := range target.Columns {
		qp := s.profileColumn(-1, cIdx, col)
		for _, pid := range s.byTable[tableID] {
			cand := &s.profiles[pid]
			score := sigSim(qp.valSig, cand.valSig)
			if n := sigSim(qp.nameSig, cand.nameSig); n > score {
				score = n
			}
			if t := sigSim(qp.termSig, cand.termSig); t > score {
				score = t
			}
			if score >= alignFloor {
				out[cIdx] = append(out[cIdx], cand.column)
			}
		}
	}
	return out
}

// JoinNeighbours returns tables connected to the given table by PK/FK
// candidate edges — the join augmentation Aurum+J uses in Experiments
// 8–11.
func (s *System) JoinNeighbours(tableID int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, pid := range s.byTable[tableID] {
		for _, e := range s.adj[pid] {
			if e.kind != edgePKFK {
				continue
			}
			other := s.profiles[e.to].tableID
			if other != tableID && !seen[other] {
				seen[other] = true
				out = append(out, other)
			}
		}
	}
	sort.Ints(out)
	return out
}

// IndexSpaceBytes reports profiles + LSH + EKG footprint (Table II).
func (s *System) IndexSpaceBytes() int64 {
	total := s.forestVal.SpaceBytes() + s.forestName.SpaceBytes()
	for i := range s.profiles {
		p := &s.profiles[i]
		total += int64(4 * (len(p.nameSig) + len(p.valSig) + len(p.termSig)))
	}
	for _, edges := range s.adj {
		total += int64(len(edges)) * 24
	}
	return total
}

// NumAttributes reports the number of EKG nodes.
func (s *System) NumAttributes() int { return len(s.profiles) }

// Edges reports the number of undirected EKG edges.
func (s *System) Edges() int {
	total := 0
	for _, es := range s.adj {
		total += len(es)
	}
	return total / 2
}
