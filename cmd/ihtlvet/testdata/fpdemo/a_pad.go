//go:build pad

package main

// padding is linked ahead of main.go's functions (its file sorts first),
// so in a -tags pad build every one of them starts further on.
//
//go:noinline
func padding(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i % 7
	}
	return s
}

var padded int

func init() { padded = padding(3) }
