package lsh

import (
	"math/rand"
	"slices"
	"testing"
)

// sketchReference is Planes.Sketch as a one-row loop: the definition the
// four-row kernel must reproduce bit for bit.
func sketchReference(p *Planes, vec []float64) BitSignature {
	sig := make(BitSignature, (p.nbits+63)/64)
	for i, row := range p.rows {
		var dot float64
		for j, v := range vec {
			dot += row[j] * v
		}
		if dot >= 0 {
			sig[i/64] |= 1 << (i % 64)
		}
	}
	return sig
}

// TestSketchEqualsOneRowLoop covers widths on either side of the kernel's
// four-row blocks and of the signature's 64-bit words, on random vectors
// (dense, sparse, tiny) and on the zero vector every numeric attribute
// is sketched from.
func TestSketchEqualsOneRowLoop(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(5))
	for _, nbits := range []int{1, 3, 64, 250, 256} {
		p := MustPlanes(dim, nbits, uint64(nbits))
		vecs := [][]float64{make([]float64, dim)}
		for n := 0; n < 200; n++ {
			v := make([]float64, dim)
			for j := range v {
				switch n % 3 {
				case 0:
					v[j] = rng.NormFloat64()
				case 1:
					if rng.Intn(8) == 0 {
						v[j] = rng.Float64() - 0.5
					}
				default:
					v[j] = (rng.Float64() - 0.5) * 1e-300
				}
			}
			vecs = append(vecs, v)
		}
		for n, v := range vecs {
			got, err := p.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			if want := sketchReference(p, v); !slices.Equal(got, want) {
				t.Fatalf("nbits %d, vector %d: Sketch %x, one-row loop %x", nbits, n, got, want)
			}
		}
	}
}

func BenchmarkPlanesSketch(b *testing.B) {
	p := MustPlanes(64, 256, 1)
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 64)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Sketch(v); err != nil {
			b.Fatal(err)
		}
	}
}
