package ihtl_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline is the end-to-end integration test of the command-
// line tools: generate a graph, convert it through every format, run
// the reports and analytics, and exercise the benchmark harness on a
// dataset subset — the full workflow a downstream user follows.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline builds six binaries")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"graphgen", "graphinfo", "pagerank", "analytics", "ihtlconvert", "ihtlbench"} {
		out, err := exec.Command("go", "build", "-o", bin(name), "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin(name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	graphPath := filepath.Join(dir, "g.bin")
	out := run("graphgen", "-kind", "web", "-n", "5000", "-seed", "3", "-o", graphPath)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("graphgen output: %s", out)
	}

	// Convert: flat -> compressed -> edgelist -> flat again; sizes
	// and loads must stay consistent.
	compPath := filepath.Join(dir, "g.cbin")
	run("ihtlconvert", "-i", graphPath, "-to", "compressed", "-o", compPath)
	elPath := filepath.Join(dir, "g.txt")
	run("ihtlconvert", "-i", compPath, "-to", "edgelist", "-o", elPath)
	backPath := filepath.Join(dir, "g2.bin")
	run("ihtlconvert", "-i", elPath, "-from", "edgelist", "-o", backPath)
	ihtlPath := filepath.Join(dir, "g.ihtl")
	out = run("ihtlconvert", "-i", graphPath, "-to", "ihtl", "-o", ihtlPath, "-hubs-per-block", "256")
	if !strings.Contains(out, "built iHTL graph") {
		t.Fatalf("ihtlconvert output: %s", out)
	}
	// Upgrade the v1 engine file to the mmap-friendly v2 layout; the
	// packed sections must come out smaller than the flat v1 adjacency.
	ihtl2Path := filepath.Join(dir, "g.ihtl2")
	out = run("ihtlconvert", "-i", ihtlPath, "-from", "ihtl", "-to", "ihtlv2", "-o", ihtl2Path)
	if !strings.Contains(out, "iHTL graph") || !strings.Contains(out, "packed adjacency stream") {
		t.Fatalf("ihtlconvert -from ihtl output: %s", out)
	}
	v1Info, err := os.Stat(ihtlPath)
	if err != nil {
		t.Fatal(err)
	}
	v2Info, err := os.Stat(ihtl2Path)
	if err != nil {
		t.Fatal(err)
	}
	if v2Info.Size() >= v1Info.Size() {
		t.Fatalf("v2 engine file %d B >= v1 %d B", v2Info.Size(), v1Info.Size())
	}

	// Left to the default B this graph is resident: the writer keeps its
	// adjacency raw, says so, and so does a re-read of that file.
	rawPath := filepath.Join(dir, "g-resident.ihtl2")
	out = run("ihtlconvert", "-i", graphPath, "-to", "ihtlv2", "-o", rawPath)
	if !strings.Contains(out, "resident:") || !strings.Contains(out, "raw adjacency stream") {
		t.Fatalf("ihtlconvert default build output: %s", out)
	}
	out = run("ihtlconvert", "-i", rawPath, "-from", "ihtl", "-to", "ihtlv2", "-o", filepath.Join(dir, "g-resident-again.ihtl2"))
	if !strings.Contains(out, "0 blocks, raw v2 stream") || !strings.Contains(out, "raw adjacency stream") {
		t.Fatalf("ihtlconvert -from ihtl on a raw file: %s", out)
	}

	flatInfo, err := os.Stat(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	compInfo, err := os.Stat(compPath)
	if err != nil {
		t.Fatal(err)
	}
	if compInfo.Size() >= flatInfo.Size() {
		t.Fatalf("compressed %d >= flat %d", compInfo.Size(), flatInfo.Size())
	}

	// Reports.
	out = run("graphinfo", "-i", graphPath, "-hubs-per-block", "256", "-reuse")
	for _, want := range []string{"in-degree:", "asymmetricity", "iHTL structure", "packed adjacency stream", "reuse-distance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("graphinfo missing %q:\n%s", want, out)
		}
	}

	// PageRank through two engines must rank the same top vertex.
	pr1 := run("pagerank", "-i", graphPath, "-engine", "ihtl", "-iters", "10", "-top", "1", "-hubs-per-block", "256")
	pr2 := run("pagerank", "-i", compPath, "-engine", "pull", "-iters", "10", "-top", "1")
	top := func(s string) string {
		i := strings.Index(s, "#1 vertex")
		if i < 0 {
			t.Fatalf("no top vertex in %q", s)
		}
		return strings.Fields(s[i:])[2]
	}
	if top(pr1) != top(pr2) {
		t.Fatalf("engines disagree on top vertex: %q vs %q", top(pr1), top(pr2))
	}

	// Analytics.
	for _, algo := range []string{"bfs", "cc", "triangles", "kcore"} {
		out = run("analytics", "-i", graphPath, "-algo", algo)
		if !strings.Contains(out, "ms") {
			t.Fatalf("analytics %s output: %s", algo, out)
		}
	}

	// Harness smoke: one experiment, one small dataset, CSV mode.
	out = run("ihtlbench", "-small", "-exp", "table4", "-datasets", "lvjrnl-s", "-csv")
	if !strings.Contains(out, "Dataset,CSC (MiB)") {
		t.Fatalf("ihtlbench CSV output: %s", out)
	}
}
