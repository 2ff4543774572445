package randx

import (
	"fmt"

	"crowdselect/internal/linalg"
)

// AliasTable draws from a fixed categorical distribution in O(1) per
// sample (Walker/Vose alias method). The corpus generator draws
// millions of vocabulary tokens from per-category language models, so
// the O(1) path matters there.
type AliasTable struct {
	prob  []float64
	alias []int
}

// NewAliasTable builds an alias table from the (unnormalized,
// non-negative) weights. At least one weight must be positive.
func NewAliasTable(weights linalg.Vector) (*AliasTable, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("randx: NewAliasTable with no weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("randx: NewAliasTable with negative weight %g", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("randx: NewAliasTable with zero total weight")
	}
	// Vose's algorithm.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	t := &AliasTable{prob: make([]float64, n), alias: make([]int, n)}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1
	}
	return t, nil
}

// Sample draws one category index using r.
func (t *AliasTable) Sample(r *RNG) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}
