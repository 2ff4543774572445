package core

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"

	"crowdselect/internal/corpus"
)

// A loop visits every index once, in blocks of at most the cap and of at
// most an even share, the last one short, and never runs two blocks on
// one slot at once.
func TestFanOutCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{0, 1, 2, 3, 7} {
		f := newFanOut(width)
		for _, c := range []struct{ n, maxBlock int }{{0, 4}, {1, 4}, {8, 8}, {178, 64}, {38, 64}, {1000, 7}} {
			seen := make([]int32, c.n)
			busy := make([]atomic.Bool, f.width())
			var blocks atomic.Int32
			f.run(c.n, c.maxBlock, func(slot, lo, hi int) {
				if busy[slot].Swap(true) {
					t.Errorf("width %d n %d: slot %d runs two blocks at once", width, c.n, slot)
				}
				blocks.Add(1)
				share := (c.n + f.width() - 1) / f.width()
				if hi-lo > c.maxBlock || hi-lo > share || hi <= lo {
					t.Errorf("width %d n %d: block [%d, %d) (cap %d, share %d)", width, c.n, lo, hi, c.maxBlock, share)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				busy[slot].Store(false)
			})
			for i, v := range seen {
				if v != 1 {
					t.Fatalf("width %d n %d: index %d visited %d times", width, c.n, i, v)
				}
			}
			if c.n == 8 && width == 2 && blocks.Load() != 2 {
				t.Errorf("a batch of 8 across 2 goroutines ran %d blocks, want two of 4", blocks.Load())
			}
		}
	}
}

// Training is the same bits at every width: the model checkpoint byte
// for byte, and every sweep's ELBO, the sweep count and the convergence
// flag, on the golden fixture and on smallDataset. Width 7 leaves a short
// last block of tasks and runs more goroutines than the host has cores;
// under -race (make race) the fan-out's goroutines run live.
func TestTrainSameBitsAtEveryWidth(t *testing.T) {
	golden := corpus.Quora().Scaled(0.04)
	golden.Seed = 11
	goldenCfg := NewConfig(6)
	goldenCfg.MaxIter = 8
	goldenCfg.InnerIter = 2
	smallCfg := NewConfig(5)
	smallCfg.MaxIter = 12
	for _, c := range []struct {
		name string
		d    *corpus.Dataset
		cfg  Config
	}{
		{"golden", corpus.MustGenerate(golden), goldenCfg},
		{"small", smallDataset(t), smallCfg},
	} {
		var want []byte
		var wantStats *TrainStats
		for _, width := range []int{1, 2, 3, 7} {
			tr := newTrainer(tasksFromDataset(c.d), len(c.d.Workers), c.d.Vocab.Size(), c.cfg)
			tr.setWidth(width)
			m, st, err := tr.train()
			if err != nil {
				t.Fatalf("%s width %d: %v", c.name, width, err)
			}
			var got bytes.Buffer
			if err := m.Save(&got); err != nil {
				t.Fatal(err)
			}
			if width == 1 {
				want, wantStats = got.Bytes(), st
				continue
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s width %d: the model differs from width 1's", c.name, width)
			}
			if st.Sweeps != wantStats.Sweeps || st.Converged != wantStats.Converged || len(st.ELBO) != len(wantStats.ELBO) {
				t.Fatalf("%s width %d: %d sweeps (converged %v), want %d (%v)", c.name, width, st.Sweeps, st.Converged, wantStats.Sweeps, wantStats.Converged)
			}
			for i, e := range st.ELBO {
				if math.Float64bits(e) != math.Float64bits(wantStats.ELBO[i]) {
					t.Errorf("%s width %d: sweep %d ELBO %v, want %v", c.name, width, i+1, e, wantStats.ELBO[i])
				}
			}
		}
	}
}
