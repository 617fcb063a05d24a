// Package tus reimplements the Table Union Search baseline (Nargesian,
// Zhu, Pu, Miller; PVLDB 2018) that D3L's evaluation compares against.
// The original implementation is not public; as the paper did, we
// implement it from the TUS paper's description:
//
//   - three evidence types extracted exclusively from instance values:
//     set unionability (Jaccard over the raw value sets), semantic
//     unionability (Jaccard over ontology-class sets obtained by mapping
//     every value token into a knowledge base — YAGO in TUS; a synthetic
//     KB here, DESIGN.md §4.3), and natural-language unionability
//     (cosine over value-word embeddings);
//   - LSH indexes as a blocking mechanism, with the final unionability
//     score computed on the retrieved candidates;
//   - max-score aggregation: an attribute pair's unionability is the
//     maximum over the three measures, and a table's score the maximum
//     over its aligned attribute pairs (the "ensemble" ranking D3L's
//     Section V-A describes for its baselines).
//
// Two properties of TUS that the D3L evaluation highlights are
// deliberately preserved: it ignores numeric columns entirely, and its
// set evidence hashes *whole values*, so inconsistently represented
// entities ("Blackfriars" vs "Blackfriars GP Practice") defeat it where
// D3L's finer-grained features do not. Its indexing maps every token of
// every value through the KB, which dominates indexing time exactly as
// Experiment 4 reports.
package tus

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"d3l/internal/embed"
	"d3l/internal/lsh"
	"d3l/internal/minhash"
	"d3l/internal/table"
	"d3l/internal/tokenize"
)

// Options configure the TUS baseline.
type Options struct {
	// MinHashSize is the signature width (same 256 as D3L for a fair
	// comparison, per the paper's footnote 5).
	MinHashSize int
	// Threshold is the LSH threshold (0.7 in the evaluation).
	Threshold float64
	// EmbedBits is the random-projection width for NL evidence.
	EmbedBits int
	// Seed drives all hash families.
	Seed uint64
	// KB maps tokens to ontology classes; nil selects the built-in
	// synthetic KB.
	KB KnowledgeBase
	// CandidateBudget caps per-attribute candidates per index.
	CandidateBudget int
}

// DefaultOptions mirrors the evaluation configuration.
func DefaultOptions() Options {
	return Options{MinHashSize: 256, Threshold: 0.7, EmbedBits: 256, Seed: 0x7f4a7c159e3779b9}
}

// KnowledgeBase maps a token to its ontology classes (YAGO stand-in).
type KnowledgeBase interface {
	// Classes returns the class identifiers of a token, or nil when the
	// token is unknown to the KB.
	Classes(token string) []string
}

// profile is TUS's per-attribute summary.
type profile struct {
	tableID int
	column  int
	valSig  minhash.Signature // raw value set
	semSig  minhash.Signature // KB class set
	nlSig   lsh.BitSignature  // mean word vector
	nlZero  bool
	semSize int
	// semCover is the fraction of tokens the KB mapped; class-set
	// Jaccard is scaled by it, as TUS's unionability probabilities
	// discount sparse ontology evidence.
	semCover float64
}

// System is a built TUS index over a lake.
type System struct {
	opts     Options
	lake     *table.Lake
	kb       KnowledgeBase
	hasher   *minhash.Hasher
	planes   *lsh.Planes
	model    *embed.Model
	profiles []profile
	byTable  [][]int

	forestVal *lsh.Forest
	forestSem *lsh.Forest
	forestNL  *lsh.Forest
}

// Build profiles and indexes the lake.
func Build(lake *table.Lake, opts Options) (*System, error) {
	if lake == nil {
		return nil, fmt.Errorf("tus: nil lake")
	}
	if opts.MinHashSize <= 0 || opts.Threshold <= 0 || opts.Threshold >= 1 || opts.EmbedBits <= 0 {
		return nil, fmt.Errorf("tus: invalid options %+v", opts)
	}
	kb := opts.KB
	if kb == nil {
		kb = BuiltinKB()
	}
	hasher, err := minhash.NewHasher(opts.MinHashSize, opts.Seed)
	if err != nil {
		return nil, err
	}
	planes, err := lsh.NewPlanes(embed.Dim, opts.EmbedBits, opts.Seed^0x1234)
	if err != nil {
		return nil, err
	}
	s := &System{
		opts:    opts,
		lake:    lake,
		kb:      kb,
		hasher:  hasher,
		planes:  planes,
		model:   embed.NewModel(opts.Seed ^ 0x5678),
		byTable: make([][]int, lake.Len()),
	}
	s.forestVal = lsh.MustForest(8, opts.MinHashSize/8)
	s.forestSem = lsh.MustForest(8, opts.MinHashSize/8)
	nlTrees, nlHashes := 4, opts.EmbedBits/8/4
	s.forestNL = lsh.MustForest(nlTrees, nlHashes)

	for tid, t := range lake.Tables() {
		for c, col := range t.Columns {
			if col.Type == table.Numeric {
				continue // TUS ignores numeric columns entirely
			}
			p := s.profileColumn(tid, c, col)
			id := len(s.profiles)
			s.profiles = append(s.profiles, p)
			s.byTable[tid] = append(s.byTable[tid], id)
			if err := s.forestVal.Add(int32(id), p.valSig); err != nil {
				return nil, err
			}
			if err := s.forestSem.Add(int32(id), p.semSig); err != nil {
				return nil, err
			}
			if !p.nlZero {
				if err := s.forestNL.Add(int32(id), p.nlSig.HashValues()); err != nil {
					return nil, err
				}
			}
		}
	}
	s.forestVal.Index()
	s.forestSem.Index()
	s.forestNL.Index()
	return s, nil
}

// profileColumn extracts the three TUS evidence signatures. Unlike
// D3L's sampled, token-level pass, TUS hashes whole values and maps
// every token of every value into the KB — the full extent, which is
// what makes its indexing expensive.
func (s *System) profileColumn(tid, cIdx int, col *table.Column) profile {
	values := col.NonNull()
	p := profile{tableID: tid, column: cIdx}
	// Set evidence: raw (lower-cased) values.
	raw := make([]string, len(values))
	for i, v := range values {
		raw[i] = strings.ToLower(strings.TrimSpace(v))
	}
	p.valSig = s.hasher.Sketch(raw)
	// Semantic evidence: union of KB classes over all value tokens.
	classes := make(map[string]struct{})
	var words []string
	mapped, totalTokens := 0, 0
	for _, v := range values {
		for _, tok := range tokenize.Tokens(v) {
			totalTokens++
			cls := s.kb.Classes(tok)
			if len(cls) > 0 {
				mapped++
			}
			for _, cl := range cls {
				classes[cl] = struct{}{}
			}
			words = append(words, tok)
		}
	}
	classSlice := make([]string, 0, len(classes))
	for cl := range classes {
		classSlice = append(classSlice, cl)
	}
	p.semSig = s.hasher.Sketch(classSlice)
	p.semSize = len(classSlice)
	if totalTokens > 0 {
		p.semCover = float64(mapped) / float64(totalTokens)
	}
	// NL evidence: mean embedding over all value words.
	vec := s.model.Mean(words)
	p.nlZero = embed.IsZero(vec)
	p.nlSig, _ = s.planes.Sketch(vec)
	return p
}

// Ranked is one table of the TUS answer.
type Ranked struct {
	TableID int
	Name    string
	// Score is the max-aggregated unionability in [0,1].
	Score float64
	// Alignments maps target column index to the candidate columns TUS
	// considers unionable with it (used for coverage and attribute
	// precision in Experiments 8–11).
	Alignments map[int][]int
}

// alignFloor is the pair score above which TUS reports an attribute
// alignment; half the LSH threshold keeps borderline pairs, mirroring
// the dispersion of TUS scores the D3L paper observes.
const alignFloor = 0.35

// TopK returns the k highest-unionability tables for the target.
func (s *System) TopK(target *table.Table, k int) ([]Ranked, error) {
	if target == nil || k <= 0 {
		return nil, fmt.Errorf("tus: nil target or non-positive k")
	}
	budget := s.opts.CandidateBudget
	if budget == 0 {
		budget = 4 * k
		if budget < 64 {
			budget = 64
		}
	}
	perCol := make(map[int]map[int]float64) // tableID -> target col -> best pair score
	aligns := make(map[int]map[int][]int)   // tableID -> target col -> cand cols
	textCols := 0
	for cIdx, col := range target.Columns {
		if col.Type == table.Numeric {
			continue
		}
		textCols++
		p := s.profileColumn(-1, cIdx, col)
		seen := make(map[int32]struct{})
		collect := func(ids []int32) {
			for _, id := range ids {
				seen[id] = struct{}{}
			}
		}
		if ids, err := s.forestVal.Query(p.valSig, budget); err == nil {
			collect(ids)
		}
		if ids, err := s.forestSem.Query(p.semSig, budget); err == nil {
			collect(ids)
		}
		if !p.nlZero {
			if ids, err := s.forestNL.Query(p.nlSig.HashValues(), budget); err == nil {
				collect(ids)
			}
		}
		// Ascending ids, so each alignment list is in a fixed order.
		ids := make([]int32, 0, len(seen))
		for id := range seen {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			cand := &s.profiles[id]
			score := s.pairScore(&p, cand)
			m := perCol[cand.tableID]
			if m == nil {
				m = make(map[int]float64)
				perCol[cand.tableID] = m
			}
			if score > m[cIdx] {
				m[cIdx] = score
			}
			if score >= alignFloor {
				am := aligns[cand.tableID]
				if am == nil {
					am = make(map[int][]int)
					aligns[cand.tableID] = am
				}
				am[cIdx] = append(am[cIdx], cand.column)
			}
		}
	}
	// Table unionability: the goodness of the whole alignment — the
	// mean of per-column best pair scores over the target's textual
	// columns (uncovered columns contribute zero). A single shared
	// column therefore cannot outrank a genuine multi-column union, as
	// in TUS's alignment-based unionability.
	out := make([]Ranked, 0, len(perCol))
	for tid, colScores := range perCol {
		// Summed in target-column order: a float sum in map order would
		// let ties between tables fall differently from run to run.
		var sum float64
		for cIdx := range target.Columns {
			sum += colScores[cIdx]
		}
		score := 0.0
		if textCols > 0 {
			score = sum / float64(textCols)
		}
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

// pairScore is the max-score unionability of an attribute pair.
func (s *System) pairScore(a, b *profile) float64 {
	score := sigSim(a.valSig, b.valSig)
	if a.semSize > 0 && b.semSize > 0 {
		cover := a.semCover
		if b.semCover < cover {
			cover = b.semCover
		}
		if sem := sigSim(a.semSig, b.semSig) * cover; sem > score {
			score = sem
		}
	}
	if !a.nlZero && !b.nlZero {
		if cos, err := lsh.CosineSimilarity(a.nlSig, b.nlSig, s.opts.EmbedBits); err == nil && cos > score {
			score = cos
		}
	}
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	return score
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

// IndexSpaceBytes reports the index footprint (Table II row).
func (s *System) IndexSpaceBytes() int64 {
	total := s.forestVal.SpaceBytes() + s.forestSem.SpaceBytes() + s.forestNL.SpaceBytes()
	for i := range s.profiles {
		p := &s.profiles[i]
		total += int64(4*(len(p.valSig)+len(p.semSig)) + 8*len(p.nlSig))
	}
	return total
}
