package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorBasicOps(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, 5, 6}

	if got := x.Dot(y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := x.Add(y); !near(got, Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := y.Sub(x); !near(got, Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := x.Scale(2); !near(got, Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := x.Sum(); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := x.Max(); got != 3 {
		t.Errorf("Max = %v, want 3", got)
	}
	if got := (Vector{-5, 3}).NormInf(); got != 5 {
		t.Errorf("NormInf = %v, want 5", got)
	}
}

func TestVectorInPlaceOps(t *testing.T) {
	x := Vector{1, 2, 3}
	x.AddScaledInPlace(2, Vector{1, 1, 1})
	if !near(x, Vector{3, 4, 5}, 0) {
		t.Errorf("AddScaledInPlace = %v", x)
	}
	x.ScaleInPlace(0.5)
	if !near(x, Vector{1.5, 2, 2.5}, 0) {
		t.Errorf("ScaleInPlace = %v", x)
	}
	x.Fill(7)
	if !near(x, Vector{7, 7, 7}, 0) {
		t.Errorf("Fill = %v", x)
	}
	x.Zero()
	if !near(x, Vector{0, 0, 0}, 0) {
		t.Errorf("Zero = %v", x)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	x := Vector{1, 2}
	y := x.Clone()
	y[0] = 99
	if x[0] != 1 {
		t.Errorf("Clone aliases original: x = %v", x)
	}
}

func TestConstVector(t *testing.T) {
	v := ConstVector(4, 2.5)
	if !near(v, Vector{2.5, 2.5, 2.5, 2.5}, 0) {
		t.Errorf("ConstVector = %v", v)
	}
}

func TestVectorDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot on mismatched lengths did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		x := Vector{clampT(a), clampT(b), clampT(c)}
		s := Softmax(x)
		return math.Abs(s.Sum()-1) < 1e-9 && s.IsFinite()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxOrderPreserving(t *testing.T) {
	x := Vector{1, 3, 2}
	s := Softmax(x)
	if !(s[1] > s[2] && s[2] > s[0]) {
		t.Errorf("Softmax not order-preserving: %v", s)
	}
}

func TestSoftmaxExtremes(t *testing.T) {
	s := Softmax(Vector{1e4, 0})
	if math.Abs(s[0]-1) > 1e-9 || s[1] < 0 {
		t.Errorf("Softmax extreme = %v", s)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vector{math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func clampT(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v > 100 {
		return 100
	}
	if v < -100 {
		return -100
	}
	return v
}
