package crowddb

import (
	"testing"
	"time"

	"crowdselect/internal/clock"
)

// overrunToFloor drives a's limit down to its floor with deadline
// overruns, each one past the decrease cooldown on clk.
func overrunToFloor(a *admission, clk *clock.Manual) {
	for a.limit > a.min {
		step(clk, admissionCooldown)
		a.acquire(false)
		a.release(time.Second, true)
	}
}

func TestAdmissionAdditiveIncrease(t *testing.T) {
	clk := new(clock.Manual)
	a := newAdmission(AdmissionConfig{Min: 2, Max: 100}, clk)
	overrunToFloor(a, clk)
	// Each healthy completion adds 1/limit; after `limit` completions
	// the limit should have grown by roughly one.
	for i := 0; i < 2; i++ {
		ok, _ := a.acquire(false)
		if !ok {
			t.Fatalf("acquire %d refused below limit", i)
		}
		a.release(time.Millisecond, false)
	}
	snap := a.snapshot()
	if snap.Limit <= 2 || snap.Limit > 3.5 {
		t.Fatalf("limit after one RTT of successes = %v, want (2, 3.5]", snap.Limit)
	}
}

func TestAdmissionMultiplicativeDecrease(t *testing.T) {
	clk := new(clock.Manual)
	a := newAdmission(AdmissionConfig{Min: 1, Max: 100}, clk)
	ok, _ := a.acquire(false)
	if !ok {
		t.Fatal("acquire refused")
	}
	a.release(time.Second, true)
	if got := a.snapshot().Limit; got != 70 {
		t.Fatalf("limit after overload = %v, want 70 (β = 0.7)", got)
	}
	// A second overrun inside the decrease cooldown must NOT shrink the
	// limit again: one burst counts once.
	step(clk, 10*time.Millisecond)
	a.acquire(false)
	a.release(time.Second, true)
	if got := a.snapshot().Limit; got != 70 {
		t.Fatalf("limit after overload inside cooldown = %v, want 70", got)
	}
	// After the cooldown it shrinks again.
	step(clk, 200*time.Millisecond)
	a.acquire(false)
	a.release(time.Second, true)
	if got := a.snapshot().Limit; got != 49 {
		t.Fatalf("limit after overload past cooldown = %v, want 49", got)
	}
	if got := a.snapshot().DeadlineOverruns; got != 3 {
		t.Fatalf("overruns = %d, want 3 (cooldown suppresses the decrease, not the count)", got)
	}
}

func TestAdmissionFloorAndCeiling(t *testing.T) {
	clk := new(clock.Manual)
	a := newAdmission(AdmissionConfig{Min: 3, Max: 5}, clk)
	// The limit starts at Max.
	if got := a.snapshot().Limit; got != 5 {
		t.Fatalf("initial limit = %v, want Max = 5", got)
	}
	a.acquire(false)
	a.release(time.Second, true)
	if got := a.snapshot().Limit; got != 3.5 {
		t.Fatalf("limit after overload = %v, want 3.5", got)
	}
	// Shrink below Min (3.5 × 0.7 = 2.45) is clamped.
	step(clk, admissionCooldown)
	a.acquire(false)
	a.release(time.Second, true)
	if got := a.snapshot().Limit; got != 3 {
		t.Fatalf("limit clamped to floor = %v, want 3", got)
	}
	// Grow above Max is clamped.
	for i := 0; i < 100; i++ {
		a.acquire(false)
		a.release(time.Millisecond, false)
	}
	if got := a.snapshot().Limit; got != 5 {
		t.Fatalf("limit clamped to ceiling = %v, want 5", got)
	}
}

func TestAdmissionPinnedLimit(t *testing.T) {
	// Min == Max pins the limit: a fixed cap.
	a := newAdmission(AdmissionConfig{Min: 4, Max: 4}, new(clock.Manual))
	for i := 0; i < 50; i++ {
		a.acquire(false)
		a.release(time.Millisecond, false)
	}
	a.acquire(false)
	a.release(time.Second, true)
	if got := a.snapshot().Limit; got != 4 {
		t.Fatalf("pinned limit drifted to %v, want 4", got)
	}
}

func TestAdmissionReadsShedBeforeMutations(t *testing.T) {
	a := newAdmission(AdmissionConfig{Min: 4, Max: 4}, new(clock.Manual))
	// Fill the read limit.
	for i := 0; i < 4; i++ {
		if ok, _ := a.acquire(false); !ok {
			t.Fatalf("read %d refused below limit", i)
		}
	}
	// The next read is shed...
	if ok, _ := a.acquire(false); ok {
		t.Fatal("read admitted above the limit")
	}
	// ...but mutations still fit in the reserve (ceil(4/4) = 1 slot).
	if ok, _ := a.acquire(true); !ok {
		t.Fatal("mutation shed while the reserve had room")
	}
	// Reserve exhausted: now mutations shed too.
	if ok, _ := a.acquire(true); ok {
		t.Fatal("mutation admitted above limit+reserve")
	}
	snap := a.snapshot()
	if snap.ShedReads != 1 || snap.ShedMutations != 1 {
		t.Fatalf("shed counters = reads %d, mutations %d; want 1, 1", snap.ShedReads, snap.ShedMutations)
	}
	if snap.Inflight != 5 {
		t.Fatalf("inflight = %d, want 5", snap.Inflight)
	}
}

func TestAdmissionRetryAfterFromDrainRate(t *testing.T) {
	a := newAdmission(AdmissionConfig{Min: 2, Max: 2}, new(clock.Manual))
	// Teach the EWMA a 1s service time: rate = limit/lat = 2/s.
	a.acquire(false)
	a.release(time.Second, false)
	a.avgLatency = 1.0 // pin the EWMA for a deterministic assertion
	// Fill both read slots plus the mutation reserve.
	a.acquire(false)
	a.acquire(false)
	ok, retryAfter := a.acquire(false)
	if ok {
		t.Fatal("read admitted above the limit")
	}
	// excess = inflight - limit + 1 = 1, rate = 2/s → ceil(1/2) = 1s.
	if retryAfter != 1 {
		t.Fatalf("retryAfter = %d, want 1", retryAfter)
	}
	// Pile up inflight via the mutation reserve and check the hint grows
	// with the backlog.
	a.acquire(true)
	_, retryAfter = a.acquire(false)
	// excess = 3 - 2 + 1 = 2, rate 2/s → 1s; grow the backlog on paper:
	a.inflight = 20
	_, retryAfter = a.acquire(false)
	// excess = 20 - 2 + 1 = 19, rate 2/s → ceil(9.5) = 10s.
	if retryAfter != 10 {
		t.Fatalf("retryAfter with deep backlog = %d, want 10", retryAfter)
	}
	// The clamp: an absurd backlog still caps at 30s.
	a.inflight = 100000
	_, retryAfter = a.acquire(false)
	if retryAfter != 30 {
		t.Fatalf("retryAfter clamp = %d, want 30", retryAfter)
	}
}

func TestAdmissionSnapshotRounding(t *testing.T) {
	clk := new(clock.Manual)
	a := newAdmission(AdmissionConfig{Min: 3, Max: 100}, clk)
	overrunToFloor(a, clk)
	a.acquire(false)
	a.release(time.Millisecond, false) // limit = 3 + 1/3 = 3.3333...
	if got := a.snapshot().Limit; got != 3.33 {
		t.Fatalf("snapshot limit = %v, want 3.33 (2dp rounding)", got)
	}
	snap := a.snapshot()
	if snap.MinLimit != 3 || snap.MaxLimit != 100 {
		t.Fatalf("snapshot bounds = [%d, %d], want [3, 100]", snap.MinLimit, snap.MaxLimit)
	}
}
