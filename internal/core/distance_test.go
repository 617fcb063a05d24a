package core

import (
	"fmt"
	"testing"

	"d3l/internal/minhash"
)

// constSig is a signature whose every slot holds v: two of them agree on
// every slot or on none, so their Jaccard estimate is exactly 1 or 0.
func constSig(v uint32) minhash.Signature {
	s := make(minhash.Signature, minhash.DefaultSize)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestDomainGuardOrderInvariant pins that testing Algorithm 2's guard
// cheapest-evidence-first cannot be observed: over hand-built profile
// pairs covering all eight truth assignments of (subject attributes
// related, N-related, F-related), under every mask that decides whether
// the N and F distances are already in the vector or must be computed by
// the guard itself, the D distance equals the paper-literal guard's —
// the KS statistic iff any predicate holds, 1 otherwise.
func TestDomainGuardOrderInvariant(t *testing.T) {
	e := buildFigure1Engine(t)
	// numeric builds one side of the pair; related picks, per signature,
	// the value shared with the other side or one of its own.
	numeric := func(side uint32, nRelated, fRelated bool, extent []float64) *Profile {
		pick := func(related bool, shared uint32) minhash.Signature {
			if related {
				return constSig(shared)
			}
			return constSig(shared + side)
		}
		return &Profile{
			Numeric: true, EZero: true, NumExtent: extent,
			QSig: pick(nRelated, 100), RSig: pick(fRelated, 200), TSig: constSig(300 + side),
		}
	}
	// The subject attributes are textual and, when related, related
	// through the value index alone — the lookup the reordered guard
	// reaches last.
	subject := func(side uint32, related bool) *Profile {
		p := &Profile{Subject: true, EZero: true, QSig: constSig(400 + side), RSig: constSig(500 + side), TSig: constSig(600 + side)}
		if related {
			p.TSig = constSig(600)
		}
		return p
	}
	masks := [][NumEvidence]bool{
		{},
		{EvidenceName: true},
		{EvidenceFormat: true},
		{EvidenceName: true, EvidenceFormat: true},
	}
	const ks = 0.5 // sup |F1 − F2| of {1,2,3,4} against {3,4,5,6}
	for bits := 0; bits < 8; bits++ {
		subjRelated, nRelated, fRelated := bits&1 != 0, bits&2 != 0, bits&4 != 0
		target := numeric(1, nRelated, fRelated, []float64{1, 2, 3, 4})
		cand := numeric(2, nRelated, fRelated, []float64{3, 4, 5, 6})
		ts, cs := subject(1, subjRelated), subject(2, subjRelated)
		if got := e.attrRelatedAnyIndex(ts, cs); got != subjRelated {
			t.Fatalf("fixture: subjects related = %v, want %v", got, subjRelated)
		}
		want := 1.0
		if subjRelated || nRelated || fRelated {
			want = ks
		}
		for _, mask := range masks {
			label := fmt.Sprintf("subject=%v N=%v F=%v mask=%v", subjRelated, nRelated, fRelated, mask)
			got := e.pairDistances(target, cand, ts, cs, mask, nil)[EvidenceDomain]
			if ref := e.domainDistanceReference(target, cand, ts, cs); got != ref || got != want {
				t.Fatalf("%s: D distance %v, paper-literal guard %v, want %v", label, got, ref, want)
			}
			// A table with no subject attribute leaves the guard to N and F.
			wantNoSubject := 1.0
			if nRelated || fRelated {
				wantNoSubject = ks
			}
			got = e.pairDistances(target, cand, nil, cs, mask, nil)[EvidenceDomain]
			if ref := e.domainDistanceReference(target, cand, nil, cs); got != ref || got != wantNoSubject {
				t.Fatalf("%s, no target subject: D distance %v, paper-literal guard %v, want %v", label, got, ref, wantNoSubject)
			}
		}
	}
}
