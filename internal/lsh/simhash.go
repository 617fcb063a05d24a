// Package lsh provides the locality-sensitive index structures D3L is
// built on: random-projection (SimHash) sketches for cosine similarity
// (Charikar, STOC 2002), and the self-tuning LSH Forest (Bawa et al.,
// WWW 2005) used for top-k retrieval.
package lsh

import (
	"fmt"
	"math"
	"math/bits"
)

// BitSignature is a packed bit vector produced by random projections.
// Bit i is sign(v · r_i) for the i-th random hyperplane r_i.
type BitSignature []uint64

// Planes is a family of random hyperplanes for cosine LSH. It is
// deterministic in its seed and safe for concurrent use once built.
type Planes struct {
	dim   int
	nbits int
	rows  [][]float64 // nbits rows of dim Gaussian components
}

// NewPlanes builds nbits Gaussian hyperplanes over dim-dimensional
// vectors.
func NewPlanes(dim, nbits int, seed uint64) (*Planes, error) {
	if dim <= 0 || nbits <= 0 {
		return nil, fmt.Errorf("lsh: dim (%d) and nbits (%d) must be positive", dim, nbits)
	}
	p := &Planes{dim: dim, nbits: nbits, rows: make([][]float64, nbits)}
	g := newGaussian(seed)
	for i := range p.rows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = g.next()
		}
		p.rows[i] = row
	}
	return p, nil
}

// Sketch projects vec onto the hyperplanes, producing a bit signature.
// A dot product is one long chain of dependent additions, so four
// hyperplanes' chains run side by side; each sum still adds its terms
// left to right, so each bit is what a one-row loop computes.
func (p *Planes) Sketch(vec []float64) (BitSignature, error) {
	if len(vec) != p.dim {
		return nil, fmt.Errorf("lsh: vector dim %d, want %d", len(vec), p.dim)
	}
	sig := make(BitSignature, (p.nbits+63)/64)
	i := 0
	for ; i+4 <= p.nbits; i += 4 {
		// Re-slicing to len(vec) lets the compiler drop the bounds checks.
		r0, r1, r2, r3 := p.rows[i][:len(vec)], p.rows[i+1][:len(vec)], p.rows[i+2][:len(vec)], p.rows[i+3][:len(vec)]
		var d0, d1, d2, d3 float64
		for j, v := range vec {
			d0 += r0[j] * v
			d1 += r1[j] * v
			d2 += r2[j] * v
			d3 += r3[j] * v
		}
		// i is a multiple of 4, so the four bits share a word.
		word := &sig[i/64]
		if d0 >= 0 {
			*word |= 1 << (i % 64)
		}
		if d1 >= 0 {
			*word |= 1 << ((i + 1) % 64)
		}
		if d2 >= 0 {
			*word |= 1 << ((i + 2) % 64)
		}
		if d3 >= 0 {
			*word |= 1 << ((i + 3) % 64)
		}
	}
	for ; i < p.nbits; i++ {
		var dot float64
		for j, v := range vec {
			dot += p.rows[i][j] * v
		}
		if dot >= 0 {
			sig[i/64] |= 1 << (i % 64)
		}
	}
	return sig, nil
}

// Hamming counts differing bits between two signatures of equal length.
func Hamming(a, b BitSignature) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("lsh: signature word counts differ: %d vs %d", len(a), len(b))
	}
	h := 0
	for i := range a {
		h += bits.OnesCount64(a[i] ^ b[i])
	}
	return h, nil
}

// CosineSimilarity estimates cos(θ) between the pre-images of two bit
// signatures: θ ≈ π · hamming/nbits.
func CosineSimilarity(a, b BitSignature, nbits int) (float64, error) {
	h, err := Hamming(a, b)
	if err != nil {
		return 0, err
	}
	if nbits <= 0 {
		return 0, fmt.Errorf("lsh: nbits must be positive, got %d", nbits)
	}
	return HammingCosine(h, nbits), nil
}

// HammingCosine is the cosine estimate of two nbits-bit signatures h
// bits apart, cos(π · h/nbits): CosineSimilarity without the signatures.
func HammingCosine(h, nbits int) float64 {
	return math.Cos(math.Pi * float64(h) / float64(nbits))
}

// HammingCosineDistance is the cosine distance 1 − cos(θ) of two
// nbits-bit signatures h bits apart, clamped to [0, 1] as required by
// the D3L distance framework (Section III-B).
func HammingCosineDistance(h, nbits int) float64 {
	d := 1 - HammingCosine(h, nbits)
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return d
}

// HashValues converts a bit signature into a sequence of byte-wide hash
// values so that cosine sketches can be indexed by the same Forest as
// MinHash signatures.
func (s BitSignature) HashValues() []uint32 {
	return s.HashValuesInto(make([]uint32, 0, len(s)*8))
}

// HashValuesInto is the allocation-free form of HashValues for hot
// paths: it appends the hash values to dst (which may be a recycled
// buffer) and returns the extended slice.
func (s BitSignature) HashValuesInto(dst []uint32) []uint32 {
	for _, w := range s {
		for b := 0; b < 8; b++ {
			dst = append(dst, uint32(w>>(8*b))&0xff)
		}
	}
	return dst
}

// value is hash value k of HashValues, read in place.
func (s BitSignature) value(k int) byte { return byte(s[k>>3] >> (8 * (k & 7))) }

// gaussian produces deterministic standard-normal variates via the
// Box–Muller transform over a SplitMix64 stream.
type gaussian struct {
	next64 func() uint64
	spare  float64
	has    bool
}

func newGaussian(seed uint64) *gaussian {
	return &gaussian{next64: splitMix64(seed)}
}

func (g *gaussian) next() float64 {
	if g.has {
		g.has = false
		return g.spare
	}
	for {
		u1 := float64(g.next64()>>11) / (1 << 53)
		u2 := float64(g.next64()>>11) / (1 << 53)
		if u1 <= 1e-300 {
			continue
		}
		r := math.Sqrt(-2 * math.Log(u1))
		g.spare = r * math.Sin(2*math.Pi*u2)
		g.has = true
		return r * math.Cos(2*math.Pi*u2)
	}
}

func splitMix64(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
