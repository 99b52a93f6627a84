package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// serveGates are bounds --compare applies on serve-openloop to the
// three metrics the issue wanted end to end. BENCHMARK.json cannot
// bound them — its end-to-end metrics must be measured by every
// workload, and the graph workloads have no daemon — so they are
// declared per-layer there and gated here. See README.md.
var serveGates = []metricSpec{
	{Name: "serve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_goodput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// loadReports reads every untraced report in dir, grouped by workload.
func loadReports(dir string) (map[string][]*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "report-*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no untraced reports (report-*-trace0.json)", dir)
	}
	sets := map[string][]*report{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		sets[rep.Workload] = append(sets[rep.Workload], &rep)
	}
	return sets, nil
}

// compareSets prints, per workload and gated metric, both sets'
// medians, B's relative difference from A (positive is worse), the
// bound and a verdict:
//
//	within      B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  a set's own spread (quartile distance over median)
//	            exceeds the bound, so the sets cannot tell
//
// It reports whether any row is worse.
func compareSets(w io.Writer, spec *benchSpec, dirA, dirB string) (worse bool, err error) {
	a, err := loadReports(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadReports(dirB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-20s %4s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "n", "median A", "median B", "diff", "bound", "spread A", "spread B", "verdict")
	for _, name := range names {
		gates := append([]metricSpec(nil), spec.EndToEnd...)
		if wl := findWorkload(name); wl != nil && wl.serve {
			gates = append(gates, serveGates...)
		}
		for _, m := range gates {
			va, vb := collect(a[name], m.Name), collect(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			diff := (mb - ma) / ma
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := "within"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case diff > m.Bound:
				verdict, worse = "worse", true
			}
			fmt.Fprintf(w, "%-16s %-20s %4d %12.5g %12.5g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				name, m.Name, min(len(va), len(vb)), ma, mb, 100*diff, 100*m.Bound, 100*spread(va), 100*spread(vb), verdict)
		}
	}
	return worse, nil
}

func collect(reps []*report, metric string) []float64 {
	var out []float64
	for _, rep := range reps {
		if v, ok := rep.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
