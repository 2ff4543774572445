package optimize_test

import (
	"fmt"

	"crowdselect/internal/linalg"
	"crowdselect/internal/optimize"
)

func ExampleWorkspace_ConjugateGradient() {
	// Minimize f(x, y) = (x−1)² + 2(y+3)².
	p := optimize.Problem{
		Eval: func(x linalg.Vector) float64 {
			return (x[0]-1)*(x[0]-1) + 2*(x[1]+3)*(x[1]+3)
		},
		Grad: func(x, g linalg.Vector) {
			g[0] = 2 * (x[0] - 1)
			g[1] = 4 * (x[1] + 3)
		},
	}
	res := new(optimize.Workspace).ConjugateGradient(p, linalg.Vector{0, 0}, optimize.Settings{})
	fmt.Printf("%.3f %.3f\n", res.X[0], res.X[1])
	// Output: 1.000 -3.000
}
