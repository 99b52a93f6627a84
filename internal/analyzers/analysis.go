// Package analyzers implements the repo-specific static-analysis
// passes behind cmd/ihtlvet. The iHTL pipelines derive their speed
// from invariants the compiler cannot check — Step dispatches that
// never allocate, the bitwise SkipZero signed-zero rule, the
// atomic-vs-buffered merge discipline, and worker callbacks that only
// write worker-owned state. Each pass turns one of those hand-
// maintained invariants into a machine-checked diagnostic, so a
// refactor that silently re-introduces per-iteration allocations or a
// data race fails CI instead of a benchmark three PRs later.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library's go/ast + go/types, because this module carries no
// third-party dependencies. If the repo ever vendors x/tools, the
// passes port over mechanically.
//
// Source directives understood by the passes:
//
//	//ihtl:noalloc          (function doc) function must not allocate
//	//ihtl:nopanic          (function doc) function + intra-module callees must not panic
//	//ihtl:nobce            (function doc) compiled body must carry no bounds checks (-bce gate)
//	//ihtl:noescape         (function doc) compiled body must not move values to the heap (-escape gate)
//	//ihtl:instrumentation  (function doc) exempt the function from the determinism wall-clock rule
//	//ihtl:pushkernel       (file)         file opts into skipzero scope
//	//ihtl:deterministic    (file)         file opts into determinism scope
//	//ihtl:faultsite-scope  (file)         file opts into the faultsite dispatch-body rule
//	//ihtl:allow-zerocmp    (line)         suppress one skipzero finding
//	//ihtl:allow-plain      (line)         suppress one atomicfield finding
//	//ihtl:allow-capture    (line)         suppress one parcapture finding
//	//ihtl:allow-noctx      (line)         suppress one ctxleak finding
//	//ihtl:allow-walltime   (line)         suppress one determinism time.Now finding
//	//ihtl:allow-rand       (line)         suppress one determinism math/rand finding
//	//ihtl:allow-maporder   (line)         suppress one determinism map-order finding
//	//ihtl:allow-nosite     (line)         suppress one faultsite finding
//	//ihtl:allow-sitearg    (line)         suppress one faultsite dynamic-site finding
//	//ihtl:allow-panic      (line)         suppress one nopanic finding
//	//ihtl:allow-dead       (line)         keep one exported identifier deadcode reports
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass. Exactly one of Run
// (per-package) or RunModule (whole-module, for cross-package
// properties such as atomic discipline) is set.
type Analyzer struct {
	Name string
	Doc  string
	// Run analyzes a single package.
	Run func(*Pass) error
	// RunModule analyzes all loaded packages at once; diagnostics are
	// reported through the pass owning the offending file.
	RunModule func([]*Pass) error
}

// Pass carries one package's syntax and type information into an
// analyzer, plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	loader *Loader // the module loader, for the whole-module passes
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix is the comment prefix shared by all ihtlvet
// directives. Directives are comments of the form //ihtl:name, with no
// space after the slashes (the Go directive convention, invisible in
// godoc).
const directivePrefix = "//ihtl:"

// commentHasDirective reports whether the comment group contains the
// given //ihtl: directive.
func commentHasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix)) == name &&
			strings.HasPrefix(c.Text, directivePrefix) {
			return true
		}
		// Directives may carry a trailing justification after the name:
		// //ihtl:allow-zerocmp option defaulting.
		if rest, ok := strings.CutPrefix(c.Text, directivePrefix+name); ok {
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// funcHasDirective reports whether fn's doc comment carries the
// directive.
func funcHasDirective(fn *ast.FuncDecl, name string) bool {
	return commentHasDirective(fn.Doc, name)
}

// FuncHasDirective reports whether fn's doc comment carries the named
// //ihtl: directive. Exported for the compiler-assisted gates in
// cmd/ihtlvet, which index annotated functions from a syntax-only
// parse outside any Pass.
func FuncHasDirective(fn *ast.FuncDecl, name string) bool {
	return funcHasDirective(fn, name)
}

// fileHasDirective reports whether any comment group in the file
// carries the directive (used for file-scoped opt-ins such as
// //ihtl:pushkernel).
func fileHasDirective(f *ast.File, name string) bool {
	for _, cg := range f.Comments {
		if commentHasDirective(cg, name) {
			return true
		}
	}
	return false
}

// lineSuppressed reports whether the line holding pos carries the
// given //ihtl:allow-* directive, either trailing the statement or on
// the line directly above it.
func lineSuppressed(fset *token.FileSet, f *ast.File, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			cl := fset.Position(c.Pos()).Line
			if (cl == line || cl == line-1) && strings.HasPrefix(c.Text, directivePrefix+name) {
				rest := strings.TrimPrefix(c.Text, directivePrefix+name)
				if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
					return true
				}
			}
		}
	}
	return false
}

// fileOf returns the *ast.File of the pass containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// suppressed reports whether the finding at pos is silenced by an
// //ihtl:allow-<name> directive on or above its line.
func (p *Pass) suppressed(pos token.Pos, name string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	return lineSuppressed(p.Fset, f, pos, name)
}

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NoAlloc, SkipZero, AtomicField, ParCapture,
		CtxLeak, Determinism, FaultSite, NoPanic, DeadCode,
	}
}

// ByName returns the named analyzers, or an error naming the unknown
// one.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}

// RunAnalyzers executes the given analyzers over the loaded packages
// and returns all diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	sink := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		passes := make([]*Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				loader:   pkg.loader,
				report:   sink,
			}
		}
		switch {
		case a.RunModule != nil:
			if err := a.RunModule(passes); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, p := range passes {
				if err := a.Run(p); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, p.Pkg.Path(), err)
				}
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diags by file, line, column, then analyzer —
// the stable order every ihtlvet output mode relies on. Exported so
// cmd/ihtlvet can re-sort after appending gate diagnostics.
func SortDiagnostics(diags []Diagnostic) {
	sortDiagnostics(diags)
}

func sortDiagnostics(diags []Diagnostic) {
	// Insertion sort keeps this dependency-free; diagnostic counts are
	// tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diagLess(diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func diagLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
