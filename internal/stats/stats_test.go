package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// ks is KolmogorovSmirnovSorted over sorted copies of a and b.
func ks(a, b []float64) (float64, error) {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	return KolmogorovSmirnovSorted(sa, sb)
}

func TestKSIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	d, err := ks(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("KS(a,a) = %v, want 0", d)
	}
}

func TestKSDisjointSupports(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{100, 200, 300}
	d, err := ks(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("KS over disjoint supports = %v, want 1", d)
	}
}

func TestKSEmptySample(t *testing.T) {
	if _, err := ks(nil, []float64{1}); err != ErrEmptySample {
		t.Fatalf("got %v, want ErrEmptySample", err)
	}
}

func TestKSKnownValue(t *testing.T) {
	// F1 steps at 1,2; F2 steps at 2,3. At x=1: F1=0.5, F2=0 -> 0.5.
	a := []float64{1, 2}
	b := []float64{2, 3}
	d, err := ks(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func ksBrute(a, b []float64) float64 {
	points := append(append([]float64{}, a...), b...)
	var d float64
	for _, x := range points {
		f1 := ecdfAt(a, x)
		f2 := ecdfAt(b, x)
		if diff := math.Abs(f1 - f2); diff > d {
			d = diff
		}
	}
	return d
}

func ecdfAt(s []float64, x float64) float64 {
	n := 0
	for _, v := range s {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(s))
}

func TestKSAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		na, nb := 1+rng.Intn(40), 1+rng.Intn(40)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = math.Floor(rng.Float64() * 20) // ties on purpose
		}
		for i := range b {
			b[i] = math.Floor(rng.Float64()*20) + rng.Float64()*2
		}
		got, err := ks(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := ksBrute(a, b)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: KS = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestKSSymmetryProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := make([]float64, 1+ra.Intn(30))
		b := make([]float64, 1+rb.Intn(30))
		for i := range a {
			a[i] = ra.NormFloat64()
		}
		for i := range b {
			b[i] = rb.NormFloat64() + 0.5
		}
		d1, err1 := ks(a, b)
		d2, err2 := ks(b, a)
		return err1 == nil && err2 == nil && math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKSSameDistributionSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	d, err := ks(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.15 {
		t.Fatalf("same-distribution KS = %v, want small", d)
	}
}

func TestKSDifferentDistributionsLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()*0.3 + 5
	}
	d, err := ks(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.9 {
		t.Fatalf("shifted-distribution KS = %v, want near 1", d)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.want)
		}
		if got := e.CCDF(c.x); math.Abs(got-(1-c.want)) > 1e-12 {
			t.Errorf("CCDF(%v) = %v, want %v", c.x, got, 1-c.want)
		}
	}
	if e.Len() != 4 || e.sorted[0] != 1 || e.sorted[3] != 3 {
		t.Fatal("ECDF metadata wrong")
	}
}

func TestECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err != ErrEmptySample {
		t.Fatalf("got %v, want ErrEmptySample", err)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make([]float64, 1+rng.Intn(50))
		for i := range s {
			s[i] = rng.Float64() * 10
		}
		e, err := NewECDF(s)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := -1.0; x <= 11; x += 0.5 {
			p := e.P(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	s, err := Describe([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("Describe wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std)
	}
	if _, err := Describe(nil); err != ErrEmptySample {
		t.Fatal("expected ErrEmptySample")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if q := Quantile(sorted, 0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 40 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(sorted, 0.5); math.Abs(q-25) > 1e-12 {
		t.Fatalf("q0.5 = %v, want 25", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantileAgainstSortInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make([]float64, 2+rng.Intn(60))
		for i := range s {
			s[i] = rng.Float64() * 100
		}
		sort.Float64s(s)
		q1 := Quantile(s, 0.25)
		q2 := Quantile(s, 0.5)
		q3 := Quantile(s, 0.75)
		return q1 <= q2 && q2 <= q3 && q1 >= s[0] && q3 <= s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKS1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() * 1.2
	}
	sort.Float64s(x)
	sort.Float64s(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KolmogorovSmirnovSorted(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
