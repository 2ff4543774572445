package eval

import (
	"math"
	"testing"

	"crowdselect/internal/linalg"
	"crowdselect/internal/randx"
)

func TestBootstrapCIValidation(t *testing.T) {
	if _, _, err := BootstrapCI(nil, 100, 0.05, 1); err == nil {
		t.Error("empty values accepted")
	}
	if _, _, err := BootstrapCI([]float64{1}, 0, 0.05, 1); err == nil {
		t.Error("zero iters accepted")
	}
	if _, _, err := BootstrapCI([]float64{1}, 100, 1.5, 1); err == nil {
		t.Error("alpha out of range accepted")
	}
}

func TestBootstrapCICoversTrueMean(t *testing.T) {
	// Samples from N(2, 1): the 95% CI of the mean should cover 2 most
	// of the time and straddle the sample mean always.
	rng := randx.New(7)
	covered := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		values := make([]float64, 200)
		for i := range values {
			values[i] = rng.Normal(2, 1)
		}
		lo, hi, err := BootstrapCI(values, 500, 0.05, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("lo %v > hi %v", lo, hi)
		}
		m := linalg.Vector(values).Sum() / float64(len(values))
		if m < lo-1e-9 || m > hi+1e-9 {
			t.Fatalf("sample mean %v outside CI [%v, %v]", m, lo, hi)
		}
		if lo <= 2 && 2 <= hi {
			covered++
		}
	}
	if covered < trials*8/10 {
		t.Errorf("true mean covered in only %d/%d trials", covered, trials)
	}
}

func TestBootstrapCIWidthShrinksWithN(t *testing.T) {
	rng := randx.New(8)
	width := func(n int) float64 {
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Normal(0, 1)
		}
		lo, hi, err := BootstrapCI(values, 400, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		return hi - lo
	}
	if w1, w2 := width(50), width(5000); w2 >= w1 {
		t.Errorf("CI width did not shrink: n=50 → %v, n=5000 → %v", w1, w2)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	lo, hi, err := BootstrapCI([]float64{3, 3, 3}, 100, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 || hi != 3 {
		t.Errorf("constant values CI = [%v, %v]", lo, hi)
	}
}

func TestEvaluateCollectsPerTaskACCU(t *testing.T) {
	d := evalDataset(t)
	g := ExtractGroup(d, 1)
	tasks := TestTasks(d, g, 60, 1)
	res := Evaluate(d, oracleSelector{d: d}, g, tasks, 0)
	if len(res.PerTaskACCU) != res.Tasks {
		t.Fatalf("collected %d values for %d tasks", len(res.PerTaskACCU), res.Tasks)
	}
	if mean := linalg.Vector(res.PerTaskACCU).Sum() / float64(res.Tasks); math.Abs(mean-res.ACCU) > 1e-12 {
		t.Errorf("per-task mean %v != ACCU %v", mean, res.ACCU)
	}
	lo, hi, err := res.ACCUInterval(200, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo > res.ACCU || hi < res.ACCU {
		t.Errorf("ACCU %v outside its CI [%v, %v]", res.ACCU, lo, hi)
	}
}
