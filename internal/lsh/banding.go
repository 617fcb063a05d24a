package lsh

import (
	"fmt"
	"math"
)

// Banded is the classic banded MinHash LSH index: the signature is cut
// into b bands of r hash values; two items collide if they agree on all
// r values of any band. The collision probability for Jaccard
// similarity s is 1-(1-s^r)^b, an S-curve with threshold ≈ (1/b)^(1/r).
//
// D3L's engine uses the Forest for top-k search; Banded backs the
// fixed-threshold membership lookups (τ = 0.7 in the paper) and the
// forest-vs-banding ablation bench.
type Banded struct {
	bands   int
	rows    int
	buckets []map[uint64][]int32 // one bucket map per band
	count   int
}

// NewBanded builds an index with the given band/row split. Signatures
// must carry at least bands*rows values.
func NewBanded(bands, rows int) (*Banded, error) {
	if bands <= 0 || rows <= 0 {
		return nil, fmt.Errorf("lsh: bands (%d) and rows (%d) must be positive", bands, rows)
	}
	b := &Banded{bands: bands, rows: rows, buckets: make([]map[uint64][]int32, bands)}
	for i := range b.buckets {
		b.buckets[i] = make(map[uint64][]int32)
	}
	return b, nil
}

// MustBanded is NewBanded panicking on bad arguments.
func MustBanded(bands, rows int) *Banded {
	b, err := NewBanded(bands, rows)
	if err != nil {
		panic(err)
	}
	return b
}

// OptimalParams picks the band/row split for a signature of numHash
// values that minimises the weighted sum of false-positive and
// false-negative probability mass around the similarity threshold (the
// standard integration approach used by reference implementations).
func OptimalParams(threshold float64, numHash int) (bands, rows int) {
	if threshold <= 0 || threshold >= 1 {
		threshold = 0.5
	}
	bestErr := math.Inf(1)
	bands, rows = 1, numHash
	for b := 1; b <= numHash; b++ {
		if numHash%b != 0 {
			continue
		}
		r := numHash / b
		fp := integrate(func(s float64) float64 { return collisionProb(s, b, r) }, 0, threshold)
		fn := integrate(func(s float64) float64 { return 1 - collisionProb(s, b, r) }, threshold, 1)
		if e := fp + fn; e < bestErr {
			bestErr, bands, rows = e, b, r
		}
	}
	return bands, rows
}

// collisionProb is the banded-LSH S-curve 1-(1-s^r)^b.
func collisionProb(s float64, b, r int) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(b))
}

func integrate(f func(float64) float64, a, b float64) float64 {
	const steps = 100
	if b <= a {
		return 0
	}
	h := (b - a) / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += f(a + (float64(i)+0.5)*h)
	}
	return sum * h
}

// Threshold reports the approximate similarity threshold (1/b)^(1/r) of
// the configured S-curve.
func (b *Banded) Threshold() float64 {
	return math.Pow(1/float64(b.bands), 1/float64(b.rows))
}

// MinSignatureLen reports the number of hash values a signature must
// provide.
func (b *Banded) MinSignatureLen() int { return b.bands * b.rows }

// Len reports the number of indexed items.
func (b *Banded) Len() int { return b.count }

// bandKey hashes one band of the signature (FNV-1a over the 4-byte
// little-endian encoding of each value).
func bandKey(sig []uint32, start, rows int) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := start; i < start+rows; i++ {
		v := sig[i]
		for b := 0; b < 4; b++ {
			h ^= uint64(v>>(8*b)) & 0xff
			h *= prime64
		}
	}
	return h
}

// Add inserts an item.
func (b *Banded) Add(id int32, sig []uint32) error {
	if len(sig) < b.MinSignatureLen() {
		return fmt.Errorf("lsh: signature has %d values, banded index needs %d", len(sig), b.MinSignatureLen())
	}
	for band := 0; band < b.bands; band++ {
		k := bandKey(sig, band*b.rows, b.rows)
		b.buckets[band][k] = append(b.buckets[band][k], id)
	}
	b.count++
	return nil
}

// Query returns the ids colliding with the query signature in at least
// one band, deduplicated.
func (b *Banded) Query(sig []uint32) ([]int32, error) {
	if len(sig) < b.MinSignatureLen() {
		return nil, fmt.Errorf("lsh: signature has %d values, banded index needs %d", len(sig), b.MinSignatureLen())
	}
	seen := make(map[int32]struct{})
	var out []int32
	for band := 0; band < b.bands; band++ {
		k := bandKey(sig, band*b.rows, b.rows)
		for _, id := range b.buckets[band][k] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	return out, nil
}

// SpaceBytes estimates the bucket payload size for space accounting.
func (b *Banded) SpaceBytes() int64 {
	var total int64
	for _, m := range b.buckets {
		for _, ids := range m {
			total += 8 + 4*int64(len(ids)) // key + id payload
		}
	}
	return total
}
