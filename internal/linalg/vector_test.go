package linalg

import (
	"math"
	"testing"
)

func TestVectorBasicOps(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, 5, 6}

	if got := x.Dot(y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
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
