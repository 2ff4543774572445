package core

import (
	"math"
	"math/rand"
	"slices"
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
		nu2 := exp(rho[kk])
		f -= 0.5 * o.sigmaCInv.At(kk, kk) * nu2
		f += 0.5 * rho[kk] // entropy ½ log ν²
	}
	// Tokens.
	f += o.tokSum.Dot(lam)
	var expSum float64
	for kk := 0; kk < o.k; kk++ {
		expSum += exp(lam[kk] + exp(rho[kk])/2)
	}
	f -= o.total * (expSum/o.eps - 1 + math.Log(o.eps))
	// Feedback.
	if o.hasFeedback {
		quad := o.s2 - 2*o.sw.Dot(lam) + lam.Dot(o.a.MulVecInto(o.mv, lam))
		for kk := 0; kk < o.k; kk++ {
			nu2 := exp(rho[kk])
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
		nu2 := exp(rho[kk])
		gl[kk] = -pl[kk]
		gr[kk] = (-0.5*o.sigmaCInv.At(kk, kk))*nu2 + 0.5
	}
	// Tokens.
	for kk := 0; kk < o.k; kk++ {
		nu2 := exp(rho[kk])
		e := exp(lam[kk] + nu2/2)
		gl[kk] += o.tokSum[kk] - o.total/o.eps*e
		gr[kk] -= o.total / o.eps * e * nu2 / 2
	}
	// Feedback.
	if o.hasFeedback {
		al := o.a.MulVecInto(o.mv, lam) // pl is spent: the buffer is free
		for kk := 0; kk < o.k; kk++ {
			nu2 := exp(rho[kk])
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
			if err := tr.m.refreshDerived(); err != nil {
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

// referencePhi is Eq. 12 as it was evaluated through KernelVersion 2, a
// softmax of logits: φₚₖ ∝ exp(λₖ + log β_kv − max), one exponential per
// (term, category), log β read down a column of the K×V matrix. It is the
// oracle the table form of taskSolver.updatePhi is held to.
func referencePhi(phi *linalg.Matrix, ids []int, lam linalg.Vector, logBeta *linalg.Matrix) {
	logits := make(linalg.Vector, len(lam))
	for p, v := range ids {
		for kk := range lam {
			logits[kk] = lam[kk] + logBeta.At(kk, v)
		}
		max, row := logits.Max(), phi.Row(p)
		var sum float64
		for kk, l := range logits {
			row[kk] = exp(l - max)
			sum += row[kk]
		}
		for kk := range row {
			row[kk] /= sum
		}
	}
}

// TestPhiTableMatchesSoftmaxReference: the two forms of Eq. 12 are the same
// distribution. They are not the same bits — the softmax rounds λₖ + log β_kv
// − max before exponentiating it, an error of half an ulp of the *argument*,
// which the exponential hands on as a relative error of that many ulps times
// the argument's size — so entries agree to 4 ulp of the row's scale (its
// sum, 1) and, where the arguments are a few units, to 1e-14 of themselves.
// Every row sums to 1 within 2⁻⁵⁰ and has its largest entry where the
// reference does.
func TestPhiTableMatchesSoftmaxReference(t *testing.T) {
	const k, v = 6, 40
	rng := rand.New(rand.NewSource(47))
	cfg := NewConfig(k)
	logBeta := linalg.NewMatrix(k, v)
	for kk := 0; kk < k; kk++ { // rows as the M-step leaves them: smoothed counts, normalised
		row, sum := logBeta.Row(kk), 0.0
		for i := range row {
			if rng.Intn(3) > 0 {
				row[i] = 20 * rng.Float64() * rng.Float64()
			}
			row[i] += cfg.BetaSmoothing
			sum += row[i]
		}
		for i := range row {
			row[i] = math.Log(row[i] / sum)
		}
	}
	beta := betaTable(logBeta)
	ids := make([]int, v)
	for i := range ids {
		ids[i] = i
	}
	s := newTaskSolver()
	got, want := linalg.NewMatrix(v, k), linalg.NewMatrix(v, k)

	compare := func(name string, lam linalg.Vector, relTol float64) {
		t.Helper()
		s.updatePhi(got, ids, lam, beta)
		referencePhi(want, ids, lam, logBeta)
		for p := range ids {
			g, w := got.Row(p), want.Row(p)
			if !g.IsFinite() {
				t.Fatalf("%s: term %d: φ = %v", name, p, g)
			}
			if math.Abs(g.Sum()-1) > 0x1p-50 {
				t.Errorf("%s: term %d: φ sums to 1%+.3g", name, p, g.Sum()-1)
			}
			if argMax(g) != argMax(w) {
				t.Errorf("%s: term %d: largest entry at %d, reference at %d", name, p, argMax(g), argMax(w))
			}
			for kk := range g {
				if diff := math.Abs(g[kk] - w[kk]); diff > 4*0x1p-52 || diff > relTol*w[kk] {
					t.Errorf("%s: term %d: φ[%d] = %x, reference %x", name, p, kk, g[kk], w[kk])
				}
			}
		}
	}
	for round := 0; round < 200; round++ {
		lam := make(linalg.Vector, k)
		for kk := range lam {
			lam[kk] = 1.5 * rng.NormFloat64()
		}
		compare("random λ", lam, 1e-14)
	}

	// The underflow corner: λ spread over 600 with the max-λ category holding
	// term 0 at the smoothing floor only, and every other category rich in it.
	floor := math.Inf(1)
	for kk := 0; kk < k; kk++ {
		logBeta.Set(kk, 0, math.Log(0.2))
		for _, lb := range logBeta.Row(kk) {
			floor = math.Min(floor, lb)
		}
	}
	logBeta.Set(2, 0, floor)
	beta = betaTable(logBeta)
	compare("underflow corner", linalg.Vector{-300, -120, 300, 0, -299.5, 250}, math.Inf(1))
	if arg := argMax(got.Row(0)); arg != 2 {
		t.Errorf("underflow corner: term 0 goes to category %d, want the max-λ category 2", arg)
	}
}

// argMax is the index of the largest entry of x, the first on ties.
func argMax(x linalg.Vector) int { return slices.Index(x, slices.Max(x)) }
