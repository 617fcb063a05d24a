package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"d3l/internal/lsh"
	"d3l/internal/minhash"
)

// This file keeps the float path Eq. 2 by counting replaced (eq2.go) as
// the oracle it is held to: per (column, evidence) cell the sorted float
// samples (refSampleCells), the ECDF lookup (refWeight, refCCDF), and the
// merge of shards' sorted float cells (refMergeSortedRuns).

// refPair is a candidate pair with its five distances as floats, the
// form the naive reference gathers.
type refPair struct {
	targetCol int
	attrID    int
	tableID   int
	dist      DistanceVector
}

// refECDFs holds, per target column and evidence type, the sorted
// sample of the R_t distribution, cell col*NumEvidence+t. An empty cell
// means "no distribution".
type refECDFs struct {
	cols  int
	cells [][]float64
}

// refSampleCells lays the pairs' distances out as one sorted float
// sample per (column, evidence) cell.
func refSampleCells(numCols int, pairs []refPair) *refECDFs {
	out := &refECDFs{cols: numCols, cells: make([][]float64, numCols*int(NumEvidence))}
	for _, p := range pairs {
		for t := 0; t < int(NumEvidence); t++ {
			i := p.targetCol*int(NumEvidence) + t
			out.cells[i] = append(out.cells[i], p.dist[t])
		}
	}
	for _, cell := range out.cells {
		slices.Sort(cell)
	}
	return out
}

// refWeight is the Eq. 2 weight 1 − P(d ≤ D) through the cell's ECDF
// (refCCDF), evaluated strictly below dist; 1 − dist with no
// distribution, 1 for a nil receiver (uniform weighting).
func (d *refECDFs) refWeight(col int, t Evidence, dist float64) float64 {
	if d == nil {
		return 1
	}
	if col < d.cols {
		if cell := d.cells[col*int(NumEvidence)+int(t)]; len(cell) > 0 {
			return refCCDF(cell, dist-1e-12)
		}
	}
	return 1 - dist
}

// refCCDF is the complementary ECDF 1 − P(X ≤ x) of a non-empty sorted
// sample: one upper-bound binary search counts the samples at most x,
// ties included, and takes NaN samples (sorted first) as below every x.
func refCCDF(sorted []float64, x float64) float64 {
	lo, hi := 0, len(sorted)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); x < sorted[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return 1 - float64(lo)/float64(len(sorted))
}

// refMergeSortedRuns appends to dst the merge of runs, each ascending in
// the order slices.Sort gives float64s (cmp.Less: NaNs first), and so
// appends exactly what sorting their concatenation would. The runs are
// consumed.
func refMergeSortedRuns(dst []float64, runs [][]float64) []float64 {
	for {
		least, live := -1, 0
		for i, run := range runs {
			if len(run) == 0 {
				continue
			}
			live++
			if least < 0 || cmp.Less(run[0], runs[least][0]) {
				least = i
			}
		}
		switch live {
		case 0:
			return dst
		case 1:
			dst = append(dst, runs[least]...)
			runs[least] = nil
			return dst
		}
		dst = append(dst, runs[least][0])
		runs[least] = runs[least][1:]
	}
}

// TestGridMatchesKernels: every code's distance is the float the kernel
// gives two signatures that many slots or bits apart, bit for bit — the
// grid is a cache of the kernels, not an approximation of them.
func TestGridMatchesKernels(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 64, 100, 128, 256, 1000} {
		g, err := newDistanceGrid(w, 64)
		if err != nil {
			t.Fatal(err)
		}
		a := make(minhash.Signature, w)
		for i := range a {
			a[i] = uint32(i)
		}
		for c := 0; c <= w; c++ {
			b := slices.Clone(a)
			for i := 0; i < c; i++ {
				b[i] += uint32(w)
			}
			if got, want := g.jaccard.dist[g.jaccardCode(a, b)], jaccardDistance(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("MinHash width %d, %d slots apart: grid %v, kernel %v", w, c, got, want)
			}
		}
		if none := g.none(); g.vector(&none) != maxDistances() {
			t.Fatalf("MinHash width %d: no evidence expands to %v", w, g.vector(&none))
		}
		if c := g.jaccardCode(a, make(minhash.Signature, w+1)); c != uint16(w) {
			t.Fatalf("MinHash width %d: a signature of another width codes %d, want %d", w, c, w)
		}
	}
	for _, w := range []int{64, 128, 256, 512} {
		g, err := newDistanceGrid(64, w)
		if err != nil {
			t.Fatal(err)
		}
		a := make(lsh.BitSignature, w/64)
		for h := 0; h <= w; h++ {
			b := make(lsh.BitSignature, w/64)
			for i := 0; i < h; i++ {
				b[i/64] |= 1 << (i % 64)
			}
			code, ok := g.hamming(a, b)
			if !ok || int(code) != h {
				t.Fatalf("SimHash width %d, %d bits apart: code %d, %v", w, h, code, ok)
			}
			dist, _ := cosineDistance(a, b, w)
			sim, _ := lsh.CosineSimilarity(a, b, w)
			if math.Float64bits(g.cosine.dist[code]) != math.Float64bits(dist) || math.Float64bits(g.cosSim[code]) != math.Float64bits(sim) {
				t.Fatalf("SimHash width %d, %d bits apart: grid %v / %v, kernel %v / %v", w, h, g.cosine.dist[code], g.cosSim[code], dist, sim)
			}
		}
	}
}

// TestCodeTableCuts checks every cut against its definition, the first
// code whose distance lies above dist[c] − 1e-12, and pins the one place
// it is not the first code of the same float: E's h = b/2, which the
// clamp region's 1 lies within 1e-12 of.
func TestCodeTableCuts(t *testing.T) {
	for _, w := range []int{64, 128, 256} {
		g, err := newDistanceGrid(w, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range []*codeTable{&g.jaccard, &g.cosine} {
			for c, d := range tab.dist {
				want := 0
				for want < len(tab.dist) && tab.dist[want] <= d-1e-12 {
					want++
				}
				if int(tab.cut[c]) != want {
					t.Fatalf("width %d, code %d: cut %d, want %d", w, c, tab.cut[c], want)
				}
			}
		}
		half := w / 2
		if d := g.cosine.dist[half]; d == 1 || 1-d > 1e-12 {
			t.Fatalf("width %d: h = %d stands for %v, want just below 1", w, half, d)
		}
		if g.cosine.dist[half+1] != 1 || g.cosine.cut[half+1] != uint16(half) {
			t.Fatalf("width %d: h = %d stands for %v with cut %d, want 1 with cut %d", w, half+1, g.cosine.dist[half+1], g.cosine.cut[half+1], half)
		}
	}
}

// TestCodeTableRefusesNonMonotone: a table whose distance falls as the
// code rises cannot be weighed by counting, and is refused loudly.
func TestCodeTableRefusesNonMonotone(t *testing.T) {
	if _, err := newCodeTable([]float64{0, 0.5, 0.25, 1}); err == nil {
		t.Fatal("a table falling from code 1 to code 2 was accepted")
	}
	if _, err := newCodeTable([]float64{0, math.NaN(), 1}); err == nil {
		t.Fatal("a table holding NaN was accepted")
	}
	if _, err := newDistanceGrid(0, 64); err == nil {
		t.Fatal("a MinHash width of 0 made a grid")
	}
	if _, err := newDistanceGrid(64, maxGridWidth+1); err == nil {
		t.Fatal("a SimHash width past a uint16 code made a grid")
	}
}

// TestGridBuildsForEveryWidth: every width Options.Validate admits makes
// a grid (the constructor's monotonicity check passes), sampled densely
// where widths are small and at the bound.
func TestGridBuildsForEveryWidth(t *testing.T) {
	for w := 1; w <= 1024; w++ {
		if _, err := newDistanceGrid(w, 64); err != nil {
			t.Fatalf("MinHash width %d: %v", w, err)
		}
	}
	for w := 64; w <= 8192; w += 64 {
		if _, err := newDistanceGrid(1, w); err != nil {
			t.Fatalf("SimHash width %d: %v", w, err)
		}
	}
	if _, err := newDistanceGrid(maxGridWidth, maxGridWidth/64*64); err != nil {
		t.Fatalf("widths at the bound: %v", err)
	}
}

// codedWeightCase decodes a fuzz input into a pair of widths, a target
// column count and candidate pairs spread over 1–3 shards: codes drawn
// to hit 0, the width, E's clamp region and everything between, D from
// a handful of values (1 most often, NaN included).
func codedWeightCase(data []byte) (g *distanceGrid, numCols int, shards [][][]candidatePair, err error) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	widths := []int{64, 128, 256}
	if g, err = newDistanceGrid(widths[next()%3], widths[next()%3]); err != nil {
		return nil, 0, nil, err
	}
	numCols = 1 + int(next()%3)
	shards = make([][][]candidatePair, 1+next()%3)
	for s := range shards {
		shards[s] = make([][]candidatePair, numCols)
	}
	domain := []float64{1, 1, 1, 0, 0.5, 0.25, 1 - 1e-13, math.NaN(), 0.75, 1}
	for len(data) > 0 {
		col, s := int(next())%numCols, int(next())%len(shards)
		var d CodedDistances
		for t := Evidence(0); t < EvidenceDomain; t++ {
			w, b := g.width(t), int(next())
			switch b % 4 {
			case 0:
				d.Codes[t] = uint16(w * (b / 4 % 2)) // 0 or the width
			case 1:
				d.Codes[t] = uint16(min(w, max(0, w/2-2+b/4%5))) // around E's clamp
			default:
				d.Codes[t] = uint16(b / 4 * w / 63)
			}
		}
		d.Domain = domain[int(next())%len(domain)]
		shards[s][col] = append(shards[s][col], candidatePair{targetCol: col, dist: d})
	}
	return g, numCols, shards, nil
}

// FuzzCodedWeights holds Eq. 2 by counting to the float path it
// replaced: random code multisets, split across 1–3 shards, give — for
// every code of every cell, from the monolith's counts and from the
// shards' counts added up — weights bit-equal to refWeight over the
// sorted floats of all pairs, which refMergeSortedRuns rebuilds from the
// shards' sorted cells.
func FuzzCodedWeights(f *testing.F) {
	f.Add([]byte{})                                                                          // empty cells
	f.Add([]byte{2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0})                                           // one sample
	f.Add([]byte{2, 2, 2, 2, 0, 0, 4, 4, 4, 4, 0, 1, 1, 4, 4, 4, 4, 0, 2, 2, 4, 4, 4, 4, 0}) // all tied, 3 shards
	f.Add([]byte{0, 1, 1, 1, 0, 0, 0, 4, 1, 5, 1, 0, 1, 9, 13, 17, 5, 7, 0, 0, 2, 3, 6, 7, 8, 0, 1, 21, 25, 29, 33, 4})
	f.Add([]byte("the width and zero, the clamp region, and the D values in between"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, numCols, shards, err := codedWeightCase(data)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle: every pair's floats, sorted per cell; and the same
		// cells rebuilt from the shards' sorted cells.
		var pairs []refPair
		shardCells := make([]*refECDFs, len(shards))
		for s, cols := range shards {
			var own []refPair
			for _, colPairs := range cols {
				for _, p := range colPairs {
					own = append(own, refPair{targetCol: p.targetCol, dist: g.vector(&p.dist)})
				}
			}
			pairs = append(pairs, own...)
			shardCells[s] = refSampleCells(numCols, own)
		}
		ref := refSampleCells(numCols, pairs)
		for i, cell := range ref.cells {
			runs := make([][]float64, len(shards))
			for s := range shards {
				runs[s] = shardCells[s].cells[i]
			}
			if merged := refMergeSortedRuns(nil, runs); !slices.EqualFunc(merged, cell, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("cell %d: merged shard cells %v, all pairs %v", i, merged, cell)
			}
		}

		// Counting: the monolith over all pairs, the merge over the
		// shards' exported counts.
		all := make([][]candidatePair, numCols)
		partials := make([]*ShardPartial, len(shards))
		for s, cols := range shards {
			var q eq2Weights
			q.reset(g, numCols)
			q.count(cols)
			partials[s] = &ShardPartial{Dists: q.export()}
			for c := range cols {
				all[c] = append(all[c], cols[c]...)
			}
		}
		var mono, merged eq2Weights
		mono.reset(g, numCols)
		mono.count(all)
		mono.finish()
		merged.reset(g, numCols)
		merged.merge(partials, nil)
		merged.finish()

		check := func(col int, ev Evidence, d *CodedDistances) {
			dist := g.distance(ev, d)
			want := ref.refWeight(col, ev, dist)
			for name, q := range map[string]*eq2Weights{"monolith": &mono, "merge": &merged} {
				if got := q.weight(col, ev, d, dist); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, column %d, %v, distance %v (codes %v): weight %v, reference %v", name, col, ev, dist, d.Codes, got, want)
				}
			}
		}
		for col := 0; col < numCols; col++ {
			for ev := Evidence(0); ev < EvidenceDomain; ev++ {
				for c := 0; c <= g.width(ev); c++ {
					var d CodedDistances
					d.Codes[ev] = uint16(c)
					check(col, ev, &d)
				}
			}
			for _, p := range all[col] {
				check(col, EvidenceDomain, &p.dist)
			}
			for _, v := range []float64{0, 0.5, 1, 1 - 1e-13, math.NaN()} {
				check(col, EvidenceDomain, &CodedDistances{Domain: v})
			}
		}
	})
}
