package analyzers

import "testing"

// TestDeadCode runs the pass's report over a fixture module: a root
// package that aliases a type of its internal/lib package.
func TestDeadCode(t *testing.T) {
	fixture := &Analyzer{Name: "deadcode", RunModule: func(passes []*Pass) error {
		reportDeadCode(passes, "ihtlvet.test/deadcode")
		return nil
	}}
	runAnalyzerTestPkgs(t, fixture, "deadcode", "internal/lib")
}

// TestDeadCodeNeedsWholeModule: on a load narrower than the module the
// users of a package's exported surface are out of view, so the pass
// reports nothing.
func TestDeadCodeNeedsWholeModule(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{DeadCode})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("narrow load reported %s: %s", d.Pos, d.Message)
	}
}
