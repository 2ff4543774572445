package core

import (
	"sync"
	"sync/atomic"
)

// fanOut runs a loop over [0, n) across a fixed number of goroutines —
// its width, the caller's own among them as slot 0 — which claim blocks
// of indices in order from one shared counter, so a block that takes
// longer than the others holds up no goroutine that could take the next
// one. fn(slot, lo, hi) runs the block [lo, hi) on the scratch of its
// slot: no two blocks run on one slot at once. The goroutines' bodies
// are bound once, when the fanOut is made, so a loop allocates nothing
// of its own, only what the caller's fn captures, and that count is the
// same at every width. Width 1 runs every block inline on slot 0: the
// same code, no goroutine. A fanOut runs one loop at a time.
//
// Which goroutine runs a block cannot change what the block computes
// when the blocks are independent — each reads only what no block
// writes and writes only its own indices — which is how training and
// the batch projection use it (DESIGN §6).
type fanOut struct {
	n, block int
	next     atomic.Int64 // the first index no goroutine has claimed
	fn       func(slot, lo, hi int)
	wg       sync.WaitGroup
	spawn    []func() // spawn[s-1] claims blocks as slot s
}

// newFanOut returns a fanOut of the given width, at least 1.
func newFanOut(width int) *fanOut {
	f := &fanOut{}
	for s := 1; s < width; s++ {
		f.spawn = append(f.spawn, func() {
			defer f.wg.Done()
			f.claim(s)
		})
	}
	return f
}

// width is the number of slots: the goroutines a loop may run on.
func (f *fanOut) width() int { return len(f.spawn) + 1 }

// run calls fn on the blocks that cover [0, n) and returns once every
// call has returned. A block holds at most maxBlock indices and at most
// an even share, ⌈n/width⌉, so that every goroutine gets one; the last
// block may be short. It starts no more goroutines than there are
// blocks beyond the caller's.
func (f *fanOut) run(n, maxBlock int, fn func(slot, lo, hi int)) {
	if n <= 0 {
		return
	}
	f.n, f.block, f.fn = n, max(1, min(maxBlock, (n+f.width()-1)/f.width())), fn
	f.next.Store(0)
	extra := min(f.width(), (n+f.block-1)/f.block) - 1
	f.wg.Add(extra)
	for _, g := range f.spawn[:extra] {
		go g()
	}
	f.claim(0)
	f.wg.Wait()
	f.fn = nil // drop what fn captured
}

// claim runs blocks as slot until none is left.
func (f *fanOut) claim(slot int) {
	for {
		lo := int(f.next.Add(int64(f.block))) - f.block
		if lo >= f.n {
			return
		}
		f.fn(slot, lo, min(lo+f.block, f.n))
	}
}
