package core

import (
	"math"
	"math/rand"
	"testing"
)

// yahooK40ELBO is the ELBO after each of the 60 sweeps of
// Train(corpus.Yahoo().Scaled(0.25), NewConfig(40)): a peak at sweep 4, a
// trough at sweep 29, a turn — sweeps 30, 31 and 32 each improve on the
// one before by less than Tol = 1e-5 of it — and then a climb of 8 %.
var yahooK40ELBO = []float64{
	-114292.276, -105257.463, -104092.646, -103701.272, -103776.880, -103974.174,
	-104147.278, -104277.898, -104368.076, -104428.658, -104469.988, -104498.515,
	-104519.067, -104534.232, -104545.563, -104554.892, -104562.555, -104568.787,
	-104573.985, -104578.356, -104582.000, -104585.081, -104587.644, -104589.740,
	-104591.407, -104592.671, -104593.547, -104594.086, -104594.266, -104594.073,
	-104593.478, -104592.455, -104590.912, -104588.753, -104585.808, -104581.833,
	-104576.402, -104568.757, -104557.389, -104538.735, -104503.495, -104431.107,
	-104294.559, -104079.653, -103798.309, -103462.271, -103056.017, -102535.879,
	-101885.952, -101133.180, -100333.096, -99548.826, -98846.239, -98261.443,
	-97792.226, -97418.120, -97110.225, -96844.829, -96608.825, -96395.974,
}

// rule is a stop rule with the given settings, fresh as newStopRule
// returns one.
func rule(tol float64, patience, minIter int) stopRule {
	return stopRule{tol: tol, patience: patience, minIter: minIter, best: math.Inf(-1)}
}

// stopsAt feeds a trajectory to a stop rule and returns the sweep it
// stops after, 0 if it never does.
func stopsAt(stop stopRule, elbo []float64) int {
	for i, e := range elbo {
		if stop.observe(e) {
			return i + 1
		}
	}
	return 0
}

// TestStopRuleIgnoresTheTrough: the turn at the bottom of the recorded
// trajectory is three consecutive sweeps of relative improvement in
// [0, stopTol) past minIter — the stop rule used to fire there, at sweep 32,
// 8 % of ELBO short of where training ends (and the Yahoo K = 40 cell of
// Table 5 fell from 0.89 to 0.65). A sweep below the running maximum is
// not flat, whatever it did relative to the sweep before.
func TestStopRuleIgnoresTheTrough(t *testing.T) {
	cfg := NewConfig(40)
	for s := 30; s <= 32; s++ {
		prev, cur := yahooK40ELBO[s-2], yahooK40ELBO[s-1]
		if rel := (cur - prev) / math.Abs(prev); rel < 0 || rel >= stopTol {
			t.Fatalf("sweep %d improves by %g of the sweep before: the recorded trajectory is not the trap it should be", s, rel)
		}
	}
	if s := stopsAt(newStopRule(cfg), yahooK40ELBO); s != 0 {
		t.Errorf("stopped after sweep %d at ELBO %.0f, below the running maximum %.0f", s, yahooK40ELBO[s-1], yahooK40ELBO[3])
	}
	// Once the climb passes the old peak and levels off, the rule fires
	// as it always did: stopPatience flat sweeps at the maximum.
	levelled := append([]float64(nil), yahooK40ELBO...)
	top := levelled[len(levelled)-1]
	for i := 1; i <= 5; i++ {
		levelled = append(levelled, top+1e-3*float64(i))
	}
	if s, want := stopsAt(newStopRule(cfg), levelled), len(yahooK40ELBO)+stopPatience; s != want {
		t.Errorf("levelled-off trajectory stops after sweep %d, want %d", s, want)
	}
}

// TestStopRuleStopsOnMonotoneConvergence: on a bound that only climbs the
// running maximum is the current value, and the rule is the plain one —
// stopPatience sweeps of improvement below stopTol, minIter at the
// earliest.
func TestStopRuleStopsOnMonotoneConvergence(t *testing.T) {
	monotone := make([]float64, 60)
	for i := range monotone {
		monotone[i] = -1000 - 500*math.Pow(0.5, float64(i+1))
	}
	// The improvement of sweep s is 500·2⁻ˢ/1000.25…, below 1e-5 from sweep 16
	// on: flat for the third time at sweep 18.
	cfg := NewConfig(5)
	if s := stopsAt(newStopRule(cfg), monotone); s != minIter {
		t.Errorf("default config stops after sweep %d, want minIter = %d", s, minIter)
	}
	if s := stopsAt(rule(stopTol, stopPatience, 0), monotone); s != 18 {
		t.Errorf("without a floor the rule stops after sweep %d, want 18", s)
	}
	cfg.MaxIter = 10 // the floor never exceeds the cap
	if s := stopsAt(newStopRule(cfg), append(monotone[:7:7], monotone[6], monotone[6], monotone[6])); s != 10 {
		t.Errorf("minIter above MaxIter: stopped after sweep %d, want 10", s)
	}
}

// TestStopRuleOnlyFiresAtTheRunningMaximum is the property behind both:
// whatever the bound does, training never reports convergence at an ELBO
// below one it has already reached.
func TestStopRuleOnlyFiresAtTheRunningMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fired := 0
	for trial := 0; trial < 2000; trial++ {
		floor, patience := rng.Intn(10), max(1, rng.Intn(4))
		stop := rule(stopTol, patience, floor)
		e, best := -1000.0, math.Inf(-1)
		for s := 0; s < 60; s++ {
			// Mostly tiny moves in either direction, now and then a jump.
			e += 2e-3 * rng.NormFloat64()
			if rng.Intn(8) == 0 {
				e += 5 * rng.NormFloat64()
			}
			best = math.Max(best, e)
			if stop.observe(e) {
				fired++
				if e < best {
					t.Fatalf("trial %d: converged after sweep %d at %v, below the running maximum %v", trial, s+1, e, best)
				}
				break
			}
		}
	}
	if fired < 100 {
		t.Errorf("the rule fired in %d of 2000 random trajectories; the property exercises little", fired)
	}
}
