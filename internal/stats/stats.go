// Package stats computes the structural statistics the paper uses to
// characterise its datasets and to motivate iHTL: degree
// distributions and their skew (§1, §2.2), and the asymmetricity
// measure of Figure 9 that separates social networks (symmetric hubs)
// from web graphs (asymmetric in-hubs).
package stats

import (
	"fmt"
	"sort"

	"ihtl/internal/graph"
)

// DegreeKind selects which degree a statistic is computed over.
type DegreeKind int

const (
	// InDegree selects in-degrees.
	InDegree DegreeKind = iota
	// OutDegree selects out-degrees.
	OutDegree
	// TotalDegree selects in+out degrees.
	TotalDegree
)

func (k DegreeKind) String() string {
	switch k {
	case InDegree:
		return "in"
	case OutDegree:
		return "out"
	case TotalDegree:
		return "total"
	default:
		return fmt.Sprintf("DegreeKind(%d)", int(k))
	}
}

// Degrees returns the degree of every vertex under kind.
func Degrees(g *graph.Graph, kind DegreeKind) []int {
	out := make([]int, g.NumV)
	for v := 0; v < g.NumV; v++ {
		switch kind {
		case InDegree:
			out[v] = g.InDegree(graph.VID(v))
		case OutDegree:
			out[v] = g.OutDegree(graph.VID(v))
		default:
			out[v] = g.Degree(graph.VID(v))
		}
	}
	return out
}

// DegreeSummary aggregates a degree distribution.
type DegreeSummary struct {
	Kind           DegreeKind
	Min, Max       int
	Mean           float64
	Median         int
	P99            int
	Gini           float64
	TopSharePct1   float64 // fraction of edges captured by top 1% of vertices
	TopSharePct01  float64 // ... by top 0.1%
	ZeroDegreeFrac float64
}

// Summarize computes a DegreeSummary for g under kind.
func Summarize(g *graph.Graph, kind DegreeKind) DegreeSummary {
	degs := Degrees(g, kind)
	s := DegreeSummary{Kind: kind}
	if len(degs) == 0 {
		return s
	}
	sorted := append([]int(nil), degs...)
	sort.Ints(sorted)
	n := len(sorted)
	s.Min = sorted[0]
	s.Max = sorted[n-1]
	s.Median = sorted[n/2]
	s.P99 = sorted[min(n-1, n*99/100)]
	var total float64
	zero := 0
	for _, d := range sorted {
		total += float64(d)
		if d == 0 {
			zero++
		}
	}
	s.Mean = total / float64(n)
	s.ZeroDegreeFrac = float64(zero) / float64(n)
	if total > 0 {
		// Gini coefficient over the sorted degree sequence.
		var cum, giniSum float64
		for i, d := range sorted {
			cum += float64(d)
			_ = i
			giniSum += cum
		}
		s.Gini = 1 - 2*(giniSum/(float64(n)*total)) + 1/float64(n)
		s.TopSharePct1 = topShare(sorted, total, 0.01)
		s.TopSharePct01 = topShare(sorted, total, 0.001)
	}
	return s
}

// topShare computes the fraction of total degree mass held by the top
// frac of vertices; sorted must be ascending.
func topShare(sorted []int, total float64, frac float64) float64 {
	k := int(frac * float64(len(sorted)))
	if k < 1 {
		k = 1
	}
	var sum float64
	for i := len(sorted) - k; i < len(sorted); i++ {
		sum += float64(sorted[i])
	}
	return sum / total
}

func bits(d int) int {
	b := 0
	for d > 1 {
		d >>= 1
		b++
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
