package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ihtl/internal/analyzers"
)

// exec runs the CLI in-process and returns its exit code plus captured
// stdout/stderr.
func execVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestListShowsAllAnalyzers pins -list to the full 9-pass suite: a
// pass added to All() without surfacing in the CLI (or removed
// silently) fails here.
func TestListShowsAllAnalyzers(t *testing.T) {
	code, out, _ := execVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	wantNames := []string{
		"noalloc", "skipzero", "atomicfield", "parcapture",
		"ctxleak", "determinism", "faultsite", "nopanic", "deadcode",
	}
	for _, name := range wantNames {
		if !strings.Contains(out, name) {
			t.Errorf("-list output is missing analyzer %q", name)
		}
	}
	if got := len(analyzers.All()); got != len(wantNames) {
		t.Errorf("analyzers.All() has %d passes, the CLI contract pins %d; update this test and the docs together", got, len(wantNames))
	}
}

// TestDeadCodeCleanOnModule runs the deadcode pass over the whole
// module, the benchmark module with it: every exported internal/
// identifier is referenced by non-test code or carries a waiver that
// still waives something.
func TestDeadCodeCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	if code, _, stderr := execVet(t, "-analyzers=deadcode", "./..."); code != 0 {
		t.Fatalf("ihtlvet -analyzers=deadcode ./... exit = %d, want 0:\n%s", code, stderr)
	}
}

// TestJSONGolden pins the -json output shape — field order, root-
// relative paths, sort order — against a recorded golden file. The
// fixture package carries one determinism and one nopanic finding.
func TestJSONGolden(t *testing.T) {
	code, out, stderr := execVet(t, "-json", "cmd/ihtlvet/testdata/src/jsondemo")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (diagnostics reported); stderr:\n%s", code, stderr)
	}
	golden, err := os.ReadFile("testdata/jsondemo_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("-json output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", out, golden)
	}
}

// TestExitCodes pins the vet-compatible exit code contract: 0 clean,
// 1 diagnostics, 2 usage/load errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"-analyzers=noalloc", "cmd/ihtlvet/testdata/src/jsondemo"}, 0},
		{"findings", []string{"cmd/ihtlvet/testdata/src/jsondemo"}, 1},
		{"unknown analyzer", []string{"-analyzers=bogus"}, 2},
		{"unknown package", []string{"internal/definitely/not/here"}, 2},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := execVet(t, tc.args...)
			if code != tc.want {
				t.Errorf("run(%v) exit = %d, want %d; stderr:\n%s", tc.args, code, tc.want, stderr)
			}
		})
	}
}

// TestGateWaiverIndex exercises the gates' annotation loader against
// the real module — the //ihtl:nobce kernels must be indexed — and
// against a fixture: an //ihtl:allow-boundscheck waiver must cover its
// own line and the next, and a directive that only shares its prefix
// covers nothing.
func TestGateWaiverIndex(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analyzers.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := loadAnnotations(root, []*gateSpec{bceGate, escapeGate})
	if err != nil {
		t.Fatal(err)
	}
	nobce := ann.funcs["nobce"]
	total := 0
	for _, frs := range nobce {
		total += len(frs)
	}
	if total == 0 {
		t.Fatal("no //ihtl:nobce functions indexed; the kernel annotations are gone or the loader is broken")
	}
	for _, fn := range []string{
		"pushTaskFlat", "sparsePullPart", "DecodeChunkCSR", "RowHeader", "Load32",
		"pushTaskEdgeMajor", "pullRowsEdgeMajor", "rowOfEdgeFrom",
		"pushTaskFlat8", "pullRowFlat8", "pullRowFlat4",
		"pushTaskActive", "pullRowsActive",
	} {
		found := false
		for _, frs := range nobce {
			for _, fr := range frs {
				if fr.name == fn {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("expected //ihtl:nobce function %s in the gate index", fn)
		}
	}
	// The Go twins of the assembly kernels stand in for them under both
	// gates (analyzers.AssemblyTwins).
	for _, twin := range analyzers.AssemblyTwins {
		for _, directive := range []string{"nobce", "noescape"} {
			found := false
			for _, frs := range ann.funcs[directive] {
				for _, fr := range frs {
					found = found || fr.name == twin
				}
			}
			if !found {
				t.Errorf("assembly twin %s is not in the //ihtl:%s gate index", twin, directive)
			}
		}
	}

	dir := t.TempDir()
	src := "package k\n\n//ihtl:nobce\nfunc kernel(x []float64, i int) {\n\t//ihtl:allow-boundscheck i is checked by the caller\n\tx[i] = 0\n\t//ihtl:allow-boundschecks is another directive\n\tx[i+1] = 0\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "k.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ann, err = loadAnnotations(dir, []*gateSpec{bceGate, escapeGate})
	if err != nil {
		t.Fatal(err)
	}
	lines := ann.waived["allow-boundscheck"]["k.go"]
	if want := map[int]bool{5: true, 6: true}; len(lines) != len(want) || !lines[5] || !lines[6] {
		t.Errorf("the fixture's waived lines are %v, want %v", lines, want)
	}
}

// TestGateRejectsBodylessAnnotation: a gate directive on a function
// with no Go body would pass unseen (the compiler reports nothing inside
// assembly), so the annotation index refuses it by name.
func TestGateRejectsBodylessAnnotation(t *testing.T) {
	dir := t.TempDir()
	src := "package k\n\n//ihtl:nobce\nfunc kernel(x []float64)\n"
	if err := os.WriteFile(filepath.Join(dir, "k.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadAnnotations(dir, []*gateSpec{bceGate, escapeGate})
	if err == nil || !strings.Contains(err.Error(), "//ihtl:nobce on kernel, which has no Go body") {
		t.Fatalf("err = %v, want the body-less //ihtl:nobce refused", err)
	}
}
