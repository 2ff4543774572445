package eval

import (
	"fmt"
	"time"

	"crowdselect/internal/corpus"
)

// Result aggregates one (algorithm, group) evaluation.
type Result struct {
	Algorithm string
	Dataset   string
	Group     int // participation threshold
	K         int // latent categories used by the algorithm (0 = n/a)
	Tasks     int // evaluated tasks

	ACCU float64 // mean precision (§7.2.2)
	Top1 float64 // Top1 recall
	Top2 float64 // Top2 recall

	// MeanSelect is the mean wall-clock time of one crowd selection
	// (project + rank), for the running-time figures.
	MeanSelect time.Duration

	// PerTaskACCU holds the per-task precision values behind ACCU,
	// for bootstrap confidence intervals (BootstrapCI).
	PerTaskACCU []float64
}

// ACCUInterval returns a percentile bootstrap CI for the mean ACCU.
func (r Result) ACCUInterval(iters int, alpha float64, seed int64) (lo, hi float64, err error) {
	return BootstrapCI(r.PerTaskACCU, iters, alpha, seed)
}

// String renders the result as one table row.
func (r Result) String() string {
	return fmt.Sprintf("%-5s %s%-3d K=%-3d tasks=%-6d ACCU=%.3f Top1=%.3f Top2=%.3f select=%s",
		r.Algorithm, r.Dataset, r.Group, r.K, r.Tasks, r.ACCU, r.Top1, r.Top2, r.MeanSelect.Round(time.Microsecond))
}

// Evaluate runs the selector over the test tasks of a group and
// aggregates ACCU, Top1/Top2 recall, and mean selection latency. Tasks
// whose candidate set degenerates are skipped.
func Evaluate(d *corpus.Dataset, sel Selector, g Group, taskIDs []int, k int) Result {
	res := Result{Algorithm: sel.Name(), Dataset: d.Profile.Name, Group: g.Threshold, K: k}
	var accuSum float64
	var top1, top2 int
	var elapsed time.Duration
	for _, id := range taskIDs {
		t := d.Tasks[id]
		best, ok := t.BestWorker()
		if !ok || !g.Contains(best) {
			continue
		}
		cands := Candidates(t)
		if len(cands) < 2 {
			continue
		}
		bag := t.Bag(d.Vocab)
		start := time.Now()
		ranked := sel.Rank(bag, cands)
		elapsed += time.Since(start)
		rbest := -1
		for i, w := range ranked {
			if w == best {
				rbest = i
				break
			}
		}
		if rbest < 0 {
			continue // selector dropped the right worker: skip defensively
		}
		a := ACCU(rbest, len(ranked))
		accuSum += a
		res.PerTaskACCU = append(res.PerTaskACCU, a)
		if TopK(rbest, 1) {
			top1++
		}
		if TopK(rbest, 2) {
			top2++
		}
		res.Tasks++
	}
	if res.Tasks > 0 {
		res.ACCU = accuSum / float64(res.Tasks)
		res.Top1 = float64(top1) / float64(res.Tasks)
		res.Top2 = float64(top2) / float64(res.Tasks)
		res.MeanSelect = elapsed / time.Duration(res.Tasks)
	}
	return res
}
