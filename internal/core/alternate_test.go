package core

import (
	"slices"
	"testing"
	"time"
)

// altArm is one body of an alternated benchmark. run selects the body
// and makes one call of it; it returns the time of each phase the
// benchmark reports (altBench.phases), or nil.
type altArm struct {
	name string
	run  func() []time.Duration
}

// altPhase is a phase time reported per arm: its median over rounds,
// divided by div, under unit.
type altPhase struct {
	unit string
	div  float64
}

// altBench times arms round-robin in one process, so that drift on a
// shared host lands on every arm alike rather than on whichever body
// ran during it. Each round runs every arm once, starting one arm
// further along than the round before, after one untimed round that
// pages everything in. The first row the -bench pattern selects
// measures every arm; its b.N is the round count. Each arm then gets a
// row, prefix+name, reporting its median call as ns/op, the median call
// divided by div under unit, its phases, and, after the first arm, the
// lower and upper quartiles of its per-round time over the first arm's
// in the same round ("vs-<first>-q1", "vs-<first>-q3").
type altBench struct {
	prefix string
	unit   string
	div    float64
	phases []altPhase
	arms   []altArm
}

func (ab altBench) run(b *testing.B) {
	var wall [][]float64    // [arm][round] ns
	var phase [][][]float64 // [arm][phase][round] ns
	measure := func(rounds int) {
		n := len(ab.arms)
		wall, phase = make([][]float64, n), make([][][]float64, n)
		for i := range phase {
			phase[i] = make([][]float64, len(ab.phases))
		}
		for r := -1; r < rounds; r++ {
			for j := range ab.arms {
				i := (max(r, 0) + j) % n
				t0 := time.Now()
				ph := ab.arms[i].run()
				d := time.Since(t0)
				if r < 0 {
					continue
				}
				wall[i] = append(wall[i], float64(d.Nanoseconds()))
				for p := range ab.phases {
					phase[i][p] = append(phase[i][p], float64(ph[p].Nanoseconds()))
				}
			}
		}
	}
	measuredBy := -1 // the first row the -bench pattern selects
	for i, arm := range ab.arms {
		b.Run(ab.prefix+arm.name, func(b *testing.B) {
			if measuredBy < 0 || measuredBy == i {
				measuredBy = i
				measure(b.N)
			}
			b.ReportMetric(quantile(wall[i], 0.5), "ns/op")
			b.ReportMetric(quantile(wall[i], 0.5)/ab.div, ab.unit)
			for p, ph := range ab.phases {
				b.ReportMetric(quantile(phase[i][p], 0.5)/ph.div, ph.unit)
			}
			if i == 0 {
				return
			}
			ratio := make([]float64, len(wall[i]))
			for r := range ratio {
				ratio[r] = wall[i][r] / wall[0][r]
			}
			b.ReportMetric(quantile(ratio, 0.25), "vs-"+ab.arms[0].name+"-q1")
			b.ReportMetric(quantile(ratio, 0.75), "vs-"+ab.arms[0].name+"-q3")
		})
	}
}

// quantile returns the q-quantile of xs, nearest rank.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}
