package core

import (
	"math"
	"math/rand"
	"testing"

	"crowdselect/internal/linalg"
)

// referenceObjective is the task objective as it evaluated before value
// and grad shared their per-point intermediates: every call recomputes
// everything from x. The three method bodies below are that code, moved
// here verbatim; they read the live objective's aggregates through the
// embedded pointer and write only the two buffers declared here. It is
// the oracle of TestTaskObjectiveMatchesReference.
type referenceObjective struct {
	*taskObjective
	d, mv linalg.Vector
}

// referenceOf binds a reference to obj as it is loaded now.
func referenceOf(obj *taskObjective) *referenceObjective {
	return &referenceObjective{taskObjective: obj, d: make(linalg.Vector, obj.k), mv: make(linalg.Vector, obj.k)}
}

// centered writes λ−μ_c into the d buffer and returns it.
func (o *referenceObjective) centered(lam linalg.Vector) linalg.Vector {
	for kk, v := range lam {
		o.d[kk] = v - o.muC[kk]
	}
	return o.d
}

// value returns F(λ, ν²); see the type comment.
func (o *referenceObjective) value(x linalg.Vector) float64 {
	lam, rho := o.split(x)
	f := 0.0
	// Prior.
	d := o.centered(lam)
	f -= 0.5 * d.Dot(o.sigmaCInv.MulVecInto(o.mv, d))
	for kk := 0; kk < o.k; kk++ {
		nu2 := math.Exp(rho[kk])
		f -= 0.5 * o.sigmaCInv.At(kk, kk) * nu2
		f += 0.5 * rho[kk] // entropy ½ log ν²
	}
	// Tokens.
	f += o.tokSum.Dot(lam)
	var expSum float64
	for kk := 0; kk < o.k; kk++ {
		expSum += math.Exp(lam[kk] + math.Exp(rho[kk])/2)
	}
	f -= o.total * (expSum/o.eps - 1 + math.Log(o.eps))
	// Feedback.
	if o.hasFeedback {
		quad := o.s2 - 2*o.sw.Dot(lam) + lam.Dot(o.a.MulVecInto(o.mv, lam))
		for kk := 0; kk < o.k; kk++ {
			nu2 := math.Exp(rho[kk])
			quad += o.nw2[kk]*lam[kk]*lam[kk] + (o.w2[kk]+o.nw2[kk])*nu2
		}
		f -= 0.5 * o.invTau2 * quad
	}
	return f
}

// grad writes ∇F over (λ, ρ) into g.
func (o *referenceObjective) grad(x, g linalg.Vector) {
	lam, rho := o.split(x)
	gl, gr := g[:o.k], g[o.k:]

	// Prior + entropy.
	pl := o.sigmaCInv.MulVecInto(o.mv, o.centered(lam))
	for kk := 0; kk < o.k; kk++ {
		nu2 := math.Exp(rho[kk])
		gl[kk] = -pl[kk]
		gr[kk] = (-0.5*o.sigmaCInv.At(kk, kk))*nu2 + 0.5
	}
	// Tokens.
	for kk := 0; kk < o.k; kk++ {
		nu2 := math.Exp(rho[kk])
		e := math.Exp(lam[kk] + nu2/2)
		gl[kk] += o.tokSum[kk] - o.total/o.eps*e
		gr[kk] -= o.total / o.eps * e * nu2 / 2
	}
	// Feedback.
	if o.hasFeedback {
		al := o.a.MulVecInto(o.mv, lam) // pl is spent: the buffer is free
		for kk := 0; kk < o.k; kk++ {
			nu2 := math.Exp(rho[kk])
			gl[kk] += o.invTau2 * (o.sw[kk] - al[kk] - o.nw2[kk]*lam[kk])
			gr[kk] -= 0.5 * o.invTau2 * (o.w2[kk] + o.nw2[kk]) * nu2
		}
	}
}

// TestTaskObjectiveMatchesReference drives one solver's objective — reused
// across tasks of two different K, with and without feedback, loaded by
// loadTaskObjective and by the reset/setEps/addTokens sequence of Project —
// through random interleavings of value and grad at fresh points, repeated
// points, points one ulp (or one zero's sign) away from the last one,
// and the orders the optimizer never produces (grad before any value, grad
// twice, value(x1) value(x2) grad(x1)). Every value and every gradient
// component must carry the bits the reference computes from scratch.
func TestTaskObjectiveMatchesReference(t *testing.T) {
	d := smallDataset(t)
	tasks := tasksFromDataset(d)
	var trainers []*trainer
	for _, k := range []int{4, 7} {
		tr := newTrainer(tasks, len(d.Workers), d.Vocab.Size(), NewConfig(k))
		for sweep := 0; sweep < 2; sweep++ { // off the symmetric initial state
			tr.updateTasks()
			tr.updateWorkers()
			tr.mStep()
			if err := tr.m.refreshInverses(); err != nil {
				t.Fatal(err)
			}
		}
		trainers = append(trainers, tr)
	}

	rng := rand.New(rand.NewSource(23))
	s := newTaskSolver()
	obj := &s.obj
	var (
		ref  *referenceObjective
		seen []linalg.Vector // points evaluated since the last load, and the last one before it
		buf  linalg.Vector   // every call reads its point from here, as from the optimizer's trial buffer
		g    linalg.Vector
		gRef linalg.Vector
		step int
	)
	load := func() {
		tr := trainers[rng.Intn(len(trainers))]
		j, k := rng.Intn(len(tr.tasks)), tr.cfg.K
		switch rng.Intn(3) {
		case 0:
			tr.loadTaskObjective(obj, j, true)
		case 1:
			tr.loadTaskObjective(obj, j, false)
		default: // Project's sequence
			obj.reset(k, tr.m.MuC, tr.m.sigmaCInv)
			obj.setEps(taylorPoint(tr.lambdaC[j], tr.nuC2[j]))
			obj.addTokens(tr.tasks[j].Bag.Counts, tr.phi[j])
		}
		ref = referenceOf(obj)
		// The point evaluated last under the previous load stays a
		// candidate for "repeated": its intermediates are another task's.
		if n := len(seen); n > 0 && len(seen[n-1]) == 2*k {
			seen = append(seen[:0], seen[n-1])
		} else {
			seen = seen[:0]
		}
		buf, g, gRef = make(linalg.Vector, 2*k), make(linalg.Vector, 2*k), make(linalg.Vector, 2*k)
	}
	fresh := func() linalg.Vector {
		x := make(linalg.Vector, 2*obj.k)
		if rng.Intn(8) == 0 {
			return x // λ = 0, ν² = 1: the trainer's first iterate, and what reset leaves in a zeroed buffer
		}
		for i := range x {
			x[i] = 0.6 * rng.NormFloat64()
		}
		if rng.Intn(4) == 0 {
			x[rng.Intn(len(x))] = 0
		}
		return x
	}
	repeated := func() linalg.Vector {
		if len(seen) == 0 {
			return fresh()
		}
		if rng.Intn(2) == 0 {
			return seen[len(seen)-1] // the point the intermediates belong to
		}
		return seen[rng.Intn(len(seen))]
	}
	nearby := func() linalg.Vector {
		x := repeated().Clone()
		i := rng.Intn(len(x))
		switch {
		case x[i] == 0:
			x[i] = math.Copysign(0, -1) // −0 is another point
			if rng.Intn(2) == 0 {
				x[i] = math.SmallestNonzeroFloat64
			}
		case rng.Intn(2) == 0:
			x[i] = math.Nextafter(x[i], math.Inf(1))
		default:
			x[i] = math.Nextafter(x[i], math.Inf(-1))
		}
		return x
	}
	visit := func(x linalg.Vector) {
		step++
		seen = append(seen, x)
		copy(buf, x)
	}
	value := func(x linalg.Vector) {
		t.Helper()
		visit(x)
		got, want := obj.value(buf), ref.value(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d (K=%d, feedback=%v): value = %x, reference %x", step, obj.k, obj.hasFeedback, math.Float64bits(got), math.Float64bits(want))
		}
	}
	grad := func(x linalg.Vector) {
		t.Helper()
		visit(x)
		g.Fill(math.NaN())
		obj.grad(buf, g)
		ref.grad(x, gRef)
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(gRef[i]) {
				t.Fatalf("step %d (K=%d, feedback=%v): grad[%d] = %x, reference %x", step, obj.k, obj.hasFeedback, i, math.Float64bits(g[i]), math.Float64bits(gRef[i]))
			}
		}
	}

	for round := 0; round < 400; round++ {
		load()
		for n := rng.Intn(24); n > 0; n-- {
			switch rng.Intn(9) {
			case 0:
				value(fresh())
			case 1:
				grad(fresh()) // right after a load: grad before any value
			case 2:
				value(repeated())
			case 3:
				grad(repeated())
			case 4:
				value(nearby())
			case 5:
				grad(nearby())
			case 6:
				x := fresh()
				grad(x)
				grad(x)
			case 7:
				x1, x2 := fresh(), fresh()
				value(x1)
				value(x2)
				grad(x1)
			case 8: // the optimizer's own order: trials, then the gradient at the accepted one
				for trials := 1 + rng.Intn(4); trials > 0; trials-- {
					value(fresh())
				}
				grad(seen[len(seen)-1])
			}
		}
	}
	if step < 4000 {
		t.Fatalf("only %d evaluations compared", step)
	}
}
