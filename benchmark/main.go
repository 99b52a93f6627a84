// Command benchmark is the repository's benchmark: one pass over one
// workload prints every metric by name with its unit and sample count,
// checks the program's outputs against frozen references, and ends
// with one JSON result line. See README.md and ../BENCHMARK.json.
//
//	bash benchmark/run.sh --workload social-flipped --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec and benchSpec mirror ../BENCHMARK.json, the one place
// metric names, units and bounds are declared.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// unit returns the declared unit of a metric.
func (s *benchSpec) unit(name string) (string, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	workers  int
	root     string // checkout root: holds BENCHMARK.json and benchmark/
	outDir   string // reports and traces
	cacheDir string // generated edge lists
}

// value is one reported metric; Samples is the number of timed
// operations behind a median (0 for counts and facts).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// run accumulates one pass: metrics, the attempted/failed tally, and
// the notes that say why anything failed.
type run struct {
	cfg       config
	spec      *benchSpec
	plan      plan
	tr        *tracer
	vals      map[string]value
	attempted int
	failed    int
	notes     []string
}

// set records a metric; its unit is the one BENCHMARK.json declares,
// so a name the file does not know is a bug in the benchmark.
func (r *run) set(name string, v float64, samples int) {
	unit, ok := r.spec.unit(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in BENCHMARK.json")
	}
	r.vals[name] = value{Value: v, Unit: unit, Samples: samples}
}

// did tallies n operations that ran and have no check of their own.
func (r *run) did(n int) { r.attempted += n }

// op tallies n attempted operations, all failed when ok is false.
func (r *run) op(n int, ok bool, format string, args ...any) {
	r.attempted += n
	if !ok {
		r.failed += n
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// report is what a pass writes to <out>/report-*.json; --compare reads
// sets of these.
type report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workers   int              `json:"workers"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// execute runs one pass and returns its report.
func execute(cfg config, spec *benchSpec) (*report, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(cfg.workers)
	var err error
	r := &run{cfg: cfg, spec: spec, plan: newPlan(cfg.smoke, cfg.traced), tr: newTracer(cfg.traced), vals: map[string]value{}}
	root := r.tr.begin("workload:" + w.name)
	if w.serve {
		err = runServe(r, w)
	} else {
		err = runGraph(r, w)
	}
	r.tr.end(root, map[string]any{"seed": cfg.seed, "workers": cfg.workers})
	if err != nil {
		return nil, err
	}
	if r.tr.on() {
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Smoke: cfg.smoke,
		Workers: cfg.workers, Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Notes: r.notes, Metrics: r.vals,
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, cfg.seed, btoi(cfg.traced))
	return rep, os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644)
}

// resultLine selects the metrics the contract asks for: every
// end-to-end metric from an untraced pass, every per-layer metric from
// a traced one. A per-layer metric the workload has no such layer for
// (serve.* on a graph workload) reads 0; a missing end-to-end metric
// is an error.
func resultLine(spec *benchSpec, rep *report) (result, error) {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	declared := spec.EndToEnd
	if rep.Traced {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			if !rep.Traced {
				return result{}, fmt.Errorf("workload %s did not measure %s", rep.Workload, m.Name)
			}
			v = value{Unit: m.Unit}
		}
		v.Samples = 0
		res.Metrics[m.Name] = v
	}
	return res, nil
}

// printListing writes every metric by name with its value, unit and
// sample count, then the tally and the notes.
func printListing(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v workers %d\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.Workers)
	for _, name := range names {
		v := rep.Metrics[name]
		line := fmt.Sprintf("%-40s %14s %-8s", name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mainErr() error {
	var cfg config
	var trace int
	var compare string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the edge generator, query sources and arrival schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measuring phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs and sub-second phases (what go test runs)")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (holds BENCHMARK.json and benchmark/)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for reports and traces (default <root>/benchmark/out)")
	flag.StringVar(&compare, "compare", "", "compare two report directories: --compare A B")
	flag.Parse()
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.root, "benchmark", "out")
	}
	cfg.cacheDir = filepath.Join(cfg.root, "benchmark", ".cache")
	spec, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	if compare != "" {
		if flag.NArg() != 1 {
			return errors.New("usage: --compare A B")
		}
		worse, err := compareSets(os.Stdout, spec, compare, flag.Arg(0))
		if err == nil && worse {
			err = errors.New("at least one metric is worse than its bound allows")
		}
		return err
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		return errors.New("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
	}
	cfg.traced = trace == 1
	cfg.workers = min(runtime.NumCPU(), 4)
	start := time.Now()
	rep, err := execute(cfg, spec)
	if err != nil {
		return err
	}
	res, err := resultLine(spec, rep)
	if err != nil {
		return err
	}
	printListing(os.Stdout, rep)
	fmt.Printf("pass took %.1f s\n", time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
