package eval

import (
	"fmt"
	"sort"

	"crowdselect/internal/randx"
)

// BootstrapCI returns a percentile bootstrap confidence interval for
// the mean of values: iters resamples, two-sided coverage 1−alpha.
// The paper reports point estimates only; the interval quantifies how
// much of a table-cell difference is sampling noise at our corpus
// sizes (used by crowdbench -ci and the eval tests).
func BootstrapCI(values []float64, iters int, alpha float64, seed int64) (lo, hi float64, err error) {
	if len(values) == 0 {
		return 0, 0, fmt.Errorf("eval: bootstrap of no values")
	}
	if iters < 1 {
		return 0, 0, fmt.Errorf("eval: bootstrap iters = %d", iters)
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, 0, fmt.Errorf("eval: bootstrap alpha = %g", alpha)
	}
	rng := randx.New(seed)
	n := len(values)
	means := make([]float64, iters)
	for b := 0; b < iters; b++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += values[rng.Intn(n)]
		}
		means[b] = sum / float64(n)
	}
	sort.Float64s(means)
	lo = quantile(means, alpha/2)
	hi = quantile(means, 1-alpha/2)
	return lo, hi, nil
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
