package optimize

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crowdselect/internal/linalg"
	"crowdselect/internal/race"
)

// coshBowl is f(x) = Σᵢ cᵢ·cosh(xᵢ − i): smooth, strictly convex,
// non-quadratic (so the line search backtracks and PR+ restarts occur)
// and evaluated without allocating.
func coshBowl(c linalg.Vector) Problem {
	return Problem{
		Eval: func(x linalg.Vector) float64 {
			var f float64
			for i, v := range x {
				f += c[i] * math.Cosh(v-float64(i))
			}
			return f
		},
		Grad: func(x, g linalg.Vector) {
			for i, v := range x {
				g[i] = c[i] * math.Sinh(v-float64(i))
			}
		},
	}
}

// resultBits flattens a Result so two can be compared bit for bit.
func resultBits(r Result) []uint64 {
	bits := []uint64{math.Float64bits(r.F), math.Float64bits(r.GradNorm), uint64(r.Iterations), uint64(r.Status)}
	for _, v := range r.X {
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// TestWorkspaceReuseMatchesFresh: one workspace carried across problems
// of different sizes — growing, shrinking, repeating — returns, bit for
// bit, the Result a fresh workspace returns for each.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Workspace
	for trial, n := range []int{6, 20, 2, 20, 1, 9, 9} {
		c, x0 := make(linalg.Vector, n), make(linalg.Vector, n)
		for i := range c {
			c[i], x0[i] = 0.5+rng.Float64(), 3*rng.NormFloat64()
		}
		p, s := coshBowl(c), Settings{MaxIter: 5 + 10*trial}
		start := x0.Clone()
		fresh := conjugateGradient(p, x0, s)
		reused := w.ConjugateGradient(p, x0, s)
		if !reflect.DeepEqual(resultBits(reused), resultBits(fresh)) {
			t.Errorf("trial %d (n=%d): reused workspace %+v, fresh %+v", trial, n, reused, fresh)
		}
		if !reflect.DeepEqual(x0, start) {
			t.Errorf("trial %d: x0 modified", trial)
		}
		if fresh.Iterations == 0 {
			t.Errorf("trial %d: no iteration ran; the test exercises nothing", trial)
		}
	}
}

// TestWorkspaceResultAliasing pins the lifetime documented on Result.X:
// a Workspace method's X is the workspace's own storage and the next
// call overwrites it, while a fresh workspace's iterate is nobody
// else's.
func TestWorkspaceResultAliasing(t *testing.T) {
	c := linalg.Vector{1, 2, 3}
	p := coshBowl(c)
	var w Workspace
	first := w.ConjugateGradient(p, linalg.Vector{4, 4, 4}, Settings{})
	kept := first.X.Clone()
	w.ConjugateGradient(p, linalg.Vector{-9, 0, 9}, Settings{MaxIter: 1})
	if reflect.DeepEqual(first.X, kept) {
		t.Error("a second solve on the workspace left the first Result.X intact: X no longer aliases, update the doc")
	}

	a := conjugateGradient(p, linalg.Vector{4, 4, 4}, Settings{})
	snapshot := a.X.Clone()
	conjugateGradient(p, linalg.Vector{-9, 0, 9}, Settings{MaxIter: 1})
	if !reflect.DeepEqual(a.X, snapshot) {
		t.Error("fresh-workspace results share storage")
	}
	if !reflect.DeepEqual(a.X, kept) {
		t.Errorf("reused and fresh workspaces disagree: %v vs %v", kept, a.X)
	}
}

// TestWarmWorkspaceAllocatesNothing is the allocation gate of the
// optimizer: once a workspace has seen a problem size, a minimization
// on it allocates nothing.
func TestWarmWorkspaceAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	c := linalg.Vector{1, 2, 3, 4, 5, 6}
	p, x0 := coshBowl(c), make(linalg.Vector, len(c))
	var w Workspace
	w.ConjugateGradient(p, x0, Settings{})
	if a := testing.AllocsPerRun(20, func() { w.ConjugateGradient(p, x0, Settings{MaxIter: 15}) }); a != 0 {
		t.Errorf("ConjugateGradient on a warm workspace: %v allocations, want 0", a)
	}
}
