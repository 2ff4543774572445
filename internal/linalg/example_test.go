package linalg_test

import (
	"fmt"

	"crowdselect/internal/linalg"
)

func ExampleSoftmax() {
	// The logistic transform of Eq. 4: latent category logits to a
	// distribution.
	pi := linalg.Softmax(linalg.Vector{2, 0, 0})
	fmt.Printf("%.3f %.3f %.3f\n", pi[0], pi[1], pi[2])
	// Output: 0.787 0.107 0.107
}

func ExampleSPDSolve() {
	a := linalg.NewMatrixFrom(2, 2, []float64{4, 1, 1, 3})
	x, err := linalg.SPDSolve(a, linalg.Vector{1, 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.4f %.4f\n", x[0], x[1])
	// Output: 0.0909 0.6364
}
