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
// what EXPERIMENTS.md quotes beside shape check 9.
func BenchmarkTopK(b *testing.B) {
	for _, m := range []int{1e3, 1e4, 1e5} {
		rng := rand.New(rand.NewSource(int64(m)))
		ids, scores := make([]int, m), make([]float64, m)
		for i := range ids {
			ids[i], scores[i] = i, rng.NormFloat64()
		}
		score := func(id int) float64 { return scores[id] }
		b.Run(fmt.Sprintf("M=%d/k=10", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkItems = TopKScored(ids, score, 10)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/candidate")
		})
	}
}
