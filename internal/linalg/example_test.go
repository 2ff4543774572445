package linalg_test

import (
	"fmt"

	"crowdselect/internal/linalg"
)

func ExampleSPDSolve() {
	a := linalg.NewMatrixFrom(2, 2, []float64{4, 1, 1, 3})
	x, err := linalg.SPDSolve(a, linalg.Vector{1, 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.4f %.4f\n", x[0], x[1])
	// Output: 0.0909 0.6364
}
