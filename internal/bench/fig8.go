package bench

import (
	"fmt"
	"slices"
	"time"

	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/order"
	"ihtl/internal/spmv"
)

// Fig8Row compares iHTL with pull traversal of a relabeled graph:
// per-iteration time plus preprocessing time (Figure 8's two tables).
type Fig8Row struct {
	Dataset string
	// Entries holds per-algorithm (iteration time, preprocessing
	// time) pairs, in the order of Fig8Algorithms. Skipped entries
	// (size caps) have Skipped set.
	Entries []Fig8Entry
	// IHTLIter and IHTLPre are the iHTL columns.
	IHTLIter, IHTLPre time.Duration
}

// Fig8Entry is one relabeling algorithm's measurements.
type Fig8Entry struct {
	Name     string
	Iter     time.Duration
	Pre      time.Duration
	Skipped  bool
	SkipNote string
}

// Fig8Algorithms returns the relabeling baselines with the paper's
// settings. gorderCap bounds the graph size GOrder is attempted on:
// its windowed 2-hop scoring is quadratic-ish on hubs, and the paper
// itself reports GOrder preprocessing >2000x slower than iHTL (and
// unable to process the largest graphs).
func Fig8Algorithms() []order.Algorithm {
	return []order.Algorithm{
		order.SlashBurn{},
		order.GOrder{},
		order.RabbitOrder{},
	}
}

// RunFig8 measures one dataset across the relabeling baselines.
func RunFig8(env *Env, name string, g *graph.Graph, gorderCap int64) (Fig8Row, error) {
	row := Fig8Row{Dataset: name}

	// iHTL columns. Preprocessing is the median of 9 builds: one build's
	// time spreads up to 2.7x from run to run, and the orderers, 25-6,000x
	// dearer, are timed once each.
	var ih *core.IHTL
	var err error
	pre := make([]time.Duration, 9)
	for i := range pre {
		start := time.Now()
		if ih, err = core.Build(g, env.ihtlParams()); err != nil {
			return row, err
		}
		pre[i] = time.Since(start)
	}
	slices.Sort(pre)
	row.IHTLPre = pre[len(pre)/2]
	ie, err := core.NewEngine(ih, env.Pool)
	if err != nil {
		return row, err
	}
	row.IHTLIter = stepTime(ie, env.Iters)

	for _, alg := range Fig8Algorithms() {
		entry := Fig8Entry{Name: alg.Name()}
		if _, isGOrder := alg.(order.GOrder); isGOrder && g.NumE > gorderCap {
			entry.Skipped = true
			entry.SkipNote = "size cap"
			row.Entries = append(row.Entries, entry)
			continue
		}
		start := time.Now()
		perm := alg.Permutation(g)
		entry.Pre = time.Since(start)
		rg, err := graph.Relabel(g, perm)
		if err != nil {
			return row, err
		}
		e, err := spmv.NewEngine(rg, env.Pool, spmv.Pull, spmv.Options{})
		if err != nil {
			return row, err
		}
		entry.Iter = stepTime(e, env.Iters)
		row.Entries = append(row.Entries, entry)
	}
	return row, nil
}

// RenderFig8 prints both halves of Figure 8.
func RenderFig8(env *Env, rows []Fig8Row) {
	if len(rows) == 0 {
		return
	}
	// The two halves differ in the column they read: per-iteration time,
	// then preprocessing time.
	half := func(title, suffix string, col func(Fig8Entry) time.Duration, ihtl func(Fig8Row) time.Duration) {
		header := []string{"Dataset"}
		for _, e := range rows[0].Entries {
			header = append(header, e.Name+suffix)
		}
		t := &Table{Title: title, Header: append(header, "iHTL")}
		for _, r := range rows {
			cells := []any{r.Dataset}
			for _, e := range r.Entries {
				if e.Skipped {
					cells = append(cells, "-("+e.SkipNote+")")
				} else {
					cells = append(cells, ms(col(e).Seconds()))
				}
			}
			t.Add(append(cells, ms(ihtl(r).Seconds()))...)
		}
		env.render(t)
	}
	half("Figure 8 (left): pull after relabeling vs iHTL, per-iteration (ms)", " pull",
		func(e Fig8Entry) time.Duration { return e.Iter }, func(r Fig8Row) time.Duration { return r.IHTLIter })
	half("Figure 8 (right): preprocessing time (ms)", "",
		func(e Fig8Entry) time.Duration { return e.Pre }, func(r Fig8Row) time.Duration { return r.IHTLPre })

	// Average preprocessing ratio vs iHTL, the paper's headline
	// "reducing the preprocessing time by 780x".
	t3 := &Table{Title: "Figure 8: preprocessing slowdown vs iHTL", Header: []string{"Algorithm", "Avg. ratio"}}
	for i := range rows[0].Entries {
		var sum float64
		var n int
		for _, r := range rows {
			e := r.Entries[i]
			if e.Skipped || r.IHTLPre == 0 {
				continue
			}
			sum += float64(e.Pre) / float64(r.IHTLPre)
			n++
		}
		if n > 0 {
			t3.Add(rows[0].Entries[i].Name, fmt.Sprintf("%.0fx", sum/float64(n)))
		}
	}
	env.render(t3)
}
