package main

import "testing"

// The kernel must be the same work on every call and in every process:
// its checksum depends on nothing but the code.
func TestRefKernelIsFixedWork(t *testing.T) {
	k := newRefKernel()
	first := k.run()
	if again := k.run(); again != first {
		t.Errorf("second run %d, first %d", again, first)
	}
	if other := newRefKernel().run(); other != first {
		t.Errorf("a fresh kernel gives %d, the first %d", other, first)
	}
}

func TestSpeedMeter(t *testing.T) {
	m := &speedMeter{k: newRefKernel()}
	m.tick(3)
	if len(m.runs) != 3 || m.spent <= 0 {
		t.Fatalf("after 3 ticks: %d runs, %v spent", len(m.runs), m.spent)
	}
	// A host on which the kernel takes twice its reference time runs at
	// half the reference speed; one outlier does not move the median.
	m.runs = []float64{2 * refKernelMS, 2 * refKernelMS, 2 * refKernelMS, 2 * refKernelMS, 9 * refKernelMS}
	if got := m.take(); !near(got, 0.5) {
		t.Errorf("speed = %v, want 0.5", got)
	}
	if len(m.runs) != 0 {
		t.Error("take did not start afresh")
	}
}
