// Command fpdemo is the tiny binary the -fingerprint test builds twice:
// a kernel and a reference sweep, which a build with -tags pad moves by
// linking a function ahead of them (a_pad.go).
package main

import (
	"fmt"
	"os"
)

//go:noinline
func kernel(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

//go:noinline
func refSweepRows(x []float64, lo, hi int) float64 {
	return kernel(x[lo:hi])
}

func main() {
	x := make([]float64, len(os.Args)+3)
	for i := range x {
		x[i] = float64(i)
	}
	fmt.Println(kernel(x), refSweepRows(x, 1, len(x)))
}
