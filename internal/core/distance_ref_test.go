package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"d3l/internal/lsh"
	"d3l/internal/minhash"
	"d3l/internal/table"
)

// refPairDistances is pairDistances as it was before the distance memo,
// kept as the oracle the memoised gather is held to: every Jaccard
// distance compares the two signatures afresh, and the D distance is the
// paper-literal guard (domainDistanceReference, which
// TestDomainGuardOrderInvariant pins to the pipeline's guard).
func (e *Engine) refPairDistances(target, cand, targetSubject, candSubject *Profile, disabled [NumEvidence]bool) DistanceVector {
	d := MaxDistances()
	if !disabled[EvidenceName] {
		d[EvidenceName] = jaccardDistance(target.QSig, cand.QSig)
	}
	if !disabled[EvidenceValue] && !target.Numeric && !cand.Numeric {
		d[EvidenceValue] = jaccardDistance(target.TSig, cand.TSig)
	}
	if !disabled[EvidenceFormat] {
		d[EvidenceFormat] = jaccardDistance(target.RSig, cand.RSig)
	}
	if !disabled[EvidenceEmbedding] && !target.EZero && !cand.EZero {
		if dist, err := lsh.CosineDistance(target.ESig, cand.ESig, e.opts.EmbedBits); err == nil {
			d[EvidenceEmbedding] = dist
		}
	}
	if !disabled[EvidenceDomain] {
		d[EvidenceDomain] = e.domainDistanceReference(target, cand, targetSubject, candSubject)
	}
	return d
}

// sameBits reports whether two distance vectors are equal bit for bit.
func sameBits(a, b DistanceVector) bool {
	for t := range a {
		if math.Float64bits(a[t]) != math.Float64bits(b[t]) {
			return false
		}
	}
	return true
}

// memoLake is refLake with the pathological columns added: a text
// column whose values yield no tset words (an empty TSig), numeric
// columns, and names and formats the synthetic tables repeat.
func memoLake(t testing.TB, seed uint64) *table.Lake {
	t.Helper()
	lake := refLake(t, seed)
	for _, tb := range []*table.Table{
		mustTable(t, "no_words", []string{"dashes", "count"}, [][]string{{"-", "1"}, {"--", "2"}, {"---", "3"}}),
		mustTable(t, "numbers_only", []string{"n1", "n2"}, [][]string{{"1.5", "10"}, {"2.5", "20"}, {"7", "30"}}),
	} {
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

// TestGatherMemoMatchesReference is the memo's property test: over 50
// seeded probe targets cut from the lake (and the two pathological
// tables), for every target column under every evidence mask a query
// may carry (all but the one that disables everything), the memoised
// gather's pair distances equal the memo-free reference's bit for bit,
// candidate by candidate.
func TestGatherMemoMatchesReference(t *testing.T) {
	lake := memoLake(t, 29)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	tables := lake.Tables()
	rng := rand.New(rand.NewSource(31))
	targets := []*table.Table{tables[len(tables)-2], tables[len(tables)-1]}
	for len(targets) < 50 {
		src := tables[rng.Intn(len(tables))]
		rows := rowsOf(src)
		if len(rows) > 1 {
			rows = rows[:1+rng.Intn(len(rows))]
		}
		targets = append(targets, mustTable(t, fmt.Sprintf("probe_%d", len(targets)), colNames(src), rows))
	}
	var emptyTSigs, numericCols, sharedPairs int
	ctx := context.Background()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for ti, target := range targets {
		tprofiles := e.ProfileTarget(target)
		var tsubject *Profile
		for i := range tprofiles {
			if tprofiles[i].Subject {
				tsubject = &tprofiles[i]
			}
		}
		for m := 0; m < 1<<NumEvidence; m++ {
			var mask [NumEvidence]bool
			for ev := range mask {
				mask[ev] = m&(1<<ev) != 0
			}
			view, err := e.resolve(QuerySpec{K: 5, Disabled: &mask})
			if m == 1<<NumEvidence-1 {
				if err == nil {
					t.Fatal("a query with every evidence type disabled resolved")
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for col := range tprofiles {
				tp := &tprofiles[col]
				if m == 0 {
					if tp.Numeric {
						numericCols++
					} else if tp.TSig.Empty() {
						emptyTSigs++
					}
				}
				pairs, err := e.gatherColumn(ctx, col, tp, tsubject, &view, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				seenQ := map[int32]bool{}
				for _, p := range pairs {
					cand := &e.profiles[p.attrID]
					var candSubject *Profile
					if s := e.subjects[cand.Ref.TableID]; s >= 0 {
						candSubject = &e.profiles[s]
					}
					if want := e.refPairDistances(tp, cand, tsubject, candSubject, mask); !sameBits(p.dist, want) {
						t.Fatalf("target %d (%s), column %d, mask %05b, candidate %d: memoised %v, reference %v",
							ti, target.Name, col, m, p.attrID, p.dist, want)
					}
					if seenQ[cand.qID] {
						sharedPairs++
					}
					seenQ[cand.qID] = true
				}
			}
		}
	}
	if emptyTSigs == 0 || numericCols == 0 || sharedPairs == 0 {
		t.Fatalf("fixture: %d target columns with an empty tset, %d numeric, %d candidates repeating a name signature; want some of each",
			emptyTSigs, numericCols, sharedPairs)
	}
}

// FuzzPairDistancesMemo drives one memo through a stream of columns and
// candidates built from the input: candidate signatures come from a
// small pool (so the memo hits), their ids from the input so that they
// collide in the memo's slots, and some columns are numeric so that the
// D guard consults the memo too. Every memoised vector must equal the
// memo-free reference's bit for bit.
func FuzzPairDistancesMemo(f *testing.F) {
	f.Add([]byte("memo"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 255, 254, 253})
	f.Add([]byte("the same column against the same signatures, again and again"))
	// One value serves as a name and as a format signature under one id,
	// and the target's name and format signatures lie at different
	// distances from it: the memo must keep the evidence types apart.
	f.Add([]byte("000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000100000A"))
	e, err := BuildEngine(figure1Lake(f), testOptions())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		const width, poolSize = 16, 6
		pool := make([]minhash.Signature, poolSize)
		ids := make([]int32, poolSize)
		for i := range pool {
			pool[i] = make(minhash.Signature, width)
			b := next()
			for s := range pool[i] {
				pool[i][s] = uint32(next() % 4)
				if b == 255 { // the empty set's signature
					pool[i][s] = math.MaxUint32
				}
			}
			ids[i] = int32(1 + int(next()%3) + i*memoSlots) // distinct ids, colliding slots
		}
		profile := func() *Profile {
			q, v, r, flags := int(next()%poolSize), int(next()%poolSize), int(next()%poolSize), next()
			p := &Profile{
				QSig: pool[q], TSig: pool[v], RSig: pool[r], qID: ids[q], tID: ids[v], rID: ids[r],
				Numeric: flags&1 != 0, EZero: true,
			}
			if p.Numeric {
				p.NumExtent = []float64{float64(flags >> 4), float64(flags>>4) + float64(flags>>1&7)}
			}
			return p
		}
		var memo distMemo
		var target *Profile
		for step := 0; len(data) > 0 && step < 256; step++ {
			op := next()
			if target == nil || op%8 == 0 {
				memo.reset()
				target = profile()
				target.qID, target.tID, target.rID = 0, 0, 0
			}
			var mask [NumEvidence]bool
			for ev := range mask {
				mask[ev] = op&(1<<(ev+3)) != 0
			}
			cand := profile()
			got := e.pairDistances(target, cand, nil, nil, mask, &memo)
			if want := e.refPairDistances(target, cand, nil, nil, mask); !sameBits(got, want) {
				t.Fatalf("step %d, mask %v: memoised %v, reference %v", step, mask, got, want)
			}
		}
	})
}
