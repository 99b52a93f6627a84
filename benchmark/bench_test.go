package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ihtl"
)

// smokePass runs one workload on the tiny inputs and returns its
// report and result line; reports land in dir.
func smokePass(t *testing.T, spec *benchSpec, dir, workload string, traced bool) (*report, result) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.5, traced: traced, smoke: true, workers: 2, root: "..", outDir: dir, cacheDir: filepath.Join(dir, "cache")}
	rep, err := execute(cfg, spec)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q", workload, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
	}
	res, err := resultLine(spec, rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep, res
}

// TestSmoke runs every workload untraced and traced and holds the
// output to BENCHMARK.json and to the checks the reports must satisfy.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seen := map[string]string{} // metric → unit, over all passes
	iters := map[string][]float64{}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			rep, res := smokePass(t, spec, dir, w.Name, traced)
			for name, v := range rep.Metrics {
				seen[name] = v.Unit
			}
			iters[w.Name] = append(iters[w.Name], rep.Metrics["analytics.pagerank_iters"].Value)

			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: result line has %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: result line lacks %s in %s", w.Name, traced, m.Name, m.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
			if traced {
				sum := rep.Metrics["core.step.flipped_busy_frac"].Value + rep.Metrics["core.step.merge_busy_frac"].Value + rep.Metrics["core.step.sparse_busy_frac"].Value
				if math.Abs(sum-1) > 0.02 {
					t.Errorf("%s: phase busy fractions sum to %v, want 1 ± 0.02", w.Name, sum)
				}
				checkSpans(t, filepath.Join(dir, "trace-"+w.Name+".json"))
			}
		}
	}

	// Every declared name was measured by some workload, with its unit.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if unit, ok := seen[m.Name]; !ok || unit != m.Unit {
			t.Errorf("BENCHMARK.json declares %s in %s; the passes reported it in %q (measured: %v)", m.Name, m.Unit, unit, ok)
		}
	}
	// The iteration count is a property of the input, not of the pass.
	for w, v := range iters {
		if len(v) != 2 || v[0] != v[1] || v[0] < 1 {
			t.Errorf("%s: analytics.pagerank_iters differs between two passes: %v", w, v)
		}
	}

	// A set of reports compared with itself is within every bound.
	var out bytes.Buffer
	worse, err := compareSets(&out, spec, dir, dir)
	if err != nil || worse {
		t.Fatalf("compare with itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if want := len(spec.Workloads)*len(spec.EndToEnd) + len(serveGates); len(rows) != want {
		t.Errorf("compare printed %d rows, want %d\n%s", len(rows), want, out.String())
	}
	for _, row := range rows {
		if !strings.HasSuffix(row, "within") {
			t.Errorf("compare with itself: %s", row)
		}
	}
}

// checkSpans asserts the span file is a tree in which no child starts
// before or ends after its parent, and self time is never negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) < 10 {
		t.Fatalf("%s: only %d spans", path, len(spans))
	}
	for i, s := range spans {
		if s.ID != i || s.EndNs < s.StartNs || s.SelfNs < 0 || s.SelfNs > s.EndNs-s.StartNs {
			t.Errorf("span %d %q: start %d end %d self %d", s.ID, s.Name, s.StartNs, s.EndNs, s.SelfNs)
		}
		if s.Parent < 0 {
			if i != 0 {
				t.Errorf("span %d %q has no parent", s.ID, s.Name)
			}
			continue
		}
		if p := spans[s.Parent]; s.Parent >= i || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %q [%d, %d] exceeds its parent %q [%d, %d]", s.ID, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
}

// TestSpecWithinContract holds BENCHMARK.json to the limits its
// consumer enforces, so a bad edit fails here and not in the driver.
func TestSpecWithinContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || raw.RunSeconds < 1 || raw.RunSeconds > 60 || len(raw.Paths) != 1 || raw.Paths[0] != "benchmark" || len(raw.Command) == 0 {
		t.Errorf("BENCHMARK.json header out of contract: %d bytes, %+v", len(data), raw)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", n, len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, w := range spec.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	setup := false
	for i, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		gated := i < len(spec.EndToEnd)
		if names[m.Name] || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: repeated name, bad unit or bad direction", m)
		}
		if gated != (m.Bound > 0) || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v (end-to-end: %v)", m.Name, m.Bound, gated)
		}
		names[m.Name] = true
		setup = setup || (gated && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end setup_s in s, lower is better")
	}
}

// TestEdgeCacheRoundTrip stores a generated list and reads it back.
func TestEdgeCacheRoundTrip(t *testing.T) {
	key, generate := findWorkload("web-sparse").input(3, true)
	two, one := ihtl.NewPool(2), ihtl.NewPool(1)
	defer two.Close()
	defer one.Close()
	el, err := generate(two)
	if err != nil {
		t.Fatal(err)
	}
	again, err := generate(one)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, ok := loadEdges(dir, key); ok {
		t.Fatal("hit in an empty cache")
	}
	if err := storeEdges(dir, key, el); err != nil {
		t.Fatal(err)
	}
	got, ok := loadEdges(dir, key)
	if !ok || got.numV != el.numV || len(got.edges) != len(el.edges) {
		t.Fatalf("round trip: ok=%v numV %d/%d edges %d/%d", ok, got.numV, el.numV, len(got.edges), len(el.edges))
	}
	for i := range el.edges {
		if got.edges[i] != el.edges[i] || again.edges[i] != el.edges[i] {
			t.Fatalf("edge %d: stored %v, read %v, regenerated on one worker %v", i, el.edges[i], got.edges[i], again.edges[i])
		}
	}
	if _, ok := loadEdges(dir, key+" "); ok {
		t.Error("hit under a different key")
	}
}
