package randx

import (
	"math"
	"testing"

	"crowdselect/internal/linalg"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(1)
	const n = 200000
	mu, sigma := 3.0, 2.0
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(mu, sigma)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-mu) > 0.03 {
		t.Errorf("mean = %v, want %v", mean, mu)
	}
	if math.Abs(variance-sigma*sigma) > 0.1 {
		t.Errorf("var = %v, want %v", variance, sigma*sigma)
	}
}

func TestNormalNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Normal(-1) did not panic")
		}
	}()
	New(1).Normal(0, -1)
}

func TestGammaMoments(t *testing.T) {
	r := New(2)
	for _, c := range []struct{ shape, scale float64 }{
		{0.5, 1}, {1, 2}, {3, 0.5}, {9, 1},
	} {
		const n = 100000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := r.Gamma(c.shape, c.scale)
			if x < 0 {
				t.Fatalf("Gamma(%v,%v) produced negative draw %v", c.shape, c.scale, x)
			}
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.02 {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.05 {
			t.Errorf("Gamma(%v,%v) var = %v, want %v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gamma(0,1) did not panic")
		}
	}()
	New(1).Gamma(0, 1)
}

func TestBetaRangeAndMean(t *testing.T) {
	r := New(3)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Beta(2, 3)
		if x < 0 || x > 1 {
			t.Fatalf("Beta draw out of range: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-0.4) > 0.01 {
		t.Errorf("Beta(2,3) mean = %v, want 0.4", mean)
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(4)
	for trial := 0; trial < 100; trial++ {
		v := r.Dirichlet(linalg.Vector{0.5, 1, 2, 5})
		var sum float64
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative Dirichlet coordinate %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sum = %v", sum)
		}
	}
}

func TestSymmetricDirichletMean(t *testing.T) {
	r := New(5)
	const n = 20000
	acc := make(linalg.Vector, 4)
	for i := 0; i < n; i++ {
		v := r.SymmetricDirichlet(4, 1)
		acc.AddScaledInPlace(1, v)
	}
	for k, v := range acc {
		if math.Abs(v/n-0.25) > 0.01 {
			t.Errorf("coordinate %d mean = %v, want 0.25", k, v/n)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(6)
	for _, lambda := range []float64{0.5, 4, 50} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		if mean := sum / n; math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if got := New(1).Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(7)
	w := linalg.Vector{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	if got := float64(counts[2]) / n; math.Abs(got-0.75) > 0.01 {
		t.Errorf("P(2) = %v, want 0.75", got)
	}
}

func TestCategoricalAllZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Categorical with all-zero weights did not panic")
		}
	}()
	New(1).Categorical(linalg.Vector{0, 0})
}

func TestAliasTableFrequencies(t *testing.T) {
	r := New(10)
	w := linalg.Vector{1, 2, 3, 0, 4}
	tab, err := NewAliasTable(w)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 5 {
		t.Errorf("Len = %d", tab.Len())
	}
	counts := make([]float64, 5)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[tab.Sample(r)]++
	}
	total := w.Sum()
	for i, wi := range w {
		want := wi / total
		got := counts[i] / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestAliasTableErrors(t *testing.T) {
	if _, err := NewAliasTable(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewAliasTable(linalg.Vector{0, 0}); err == nil {
		t.Error("zero weights accepted")
	}
	if _, err := NewAliasTable(linalg.Vector{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", got)
	}
}
