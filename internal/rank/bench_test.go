package rank

import (
	"fmt"
	"math/rand"
	"testing"
)

var sinkItems []Item

// BenchmarkTopK is the ranking layer alone: M candidates with scores
// read from a slice (so the scoring closure costs what Model.Score's
// does without its dot product), keep 10. Its ns/candidate slope is
// what EXPERIMENTS.md quotes beside shape check 9. At M = 10⁴ two more
// rows put the worst cases beside the typical one: order=ascending,
// where every candidate displaces the heap's root, and k=M, the full
// sort.
func BenchmarkTopK(b *testing.B) {
	run := func(name string, ids []int, scores []float64, k int) {
		score := func(id int) float64 { return scores[id] }
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkItems = TopKScored(ids, score, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ids)), "ns/candidate")
		})
	}
	for _, m := range []int{1e3, 1e4, 1e5} {
		rng := rand.New(rand.NewSource(int64(m)))
		ids, scores := make([]int, m), make([]float64, m)
		for i := range ids {
			ids[i], scores[i] = i, rng.NormFloat64()
		}
		run(fmt.Sprintf("M=%d/k=10", m), ids, scores, 10)
		if m == 1e4 {
			ascending := make([]float64, m)
			for i := range ascending {
				ascending[i] = float64(i)
			}
			run(fmt.Sprintf("M=%d/k=10/order=ascending", m), ids, ascending, 10)
			run(fmt.Sprintf("M=%d/k=M", m), ids, scores, m)
		}
	}
}
