package rank_test

import (
	"fmt"

	"crowdselect/internal/rank"
)

func ExampleTopK() {
	skills := map[int]float64{3: 0.9, 7: 0.4, 9: 0.7}
	top := rank.TopK([]int{3, 7, 9}, func(id int) float64 { return skills[id] }, 2)
	fmt.Println(top)
	// Output: [3 9]
}
