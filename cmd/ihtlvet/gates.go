package main

// Compiler-assisted gates. The syntactic passes in internal/analyzers
// check what the source says; the -bce and -escape gates check what
// the compiler actually did to it. Both shell out to go build with
// diagnostic gcflags, map the emitted positions into the line ranges
// of directive-annotated functions, and report anything that lands
// inside one:
//
//   - -bce runs -gcflags=-d=ssa/check_bce and fails on any
//     "Found IsInBounds"/"Found IsSliceInBounds" inside an
//     //ihtl:nobce function. A deliberate residual check (e.g. a
//     clamped clear() kept for the runtime memclr) carries
//     //ihtl:allow-boundscheck <reason> on its line.
//   - -escape runs -gcflags=-m and fails on any "escapes to heap" /
//     "moved to heap" inside an //ihtl:noescape function; waiver
//     //ihtl:allow-escape <reason>.
//
// Both gates are toolchain-sensitive: a new compiler may prove more
// (findings disappear — fine) or less (findings appear — the gate is
// doing its job). CI runs them on the pinned Go version recorded in
// .github/workflows/ci.yml.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"ihtl/internal/analyzers"
)

// funcRange is one annotated function's position span plus the lines
// in its file that carry the gate's allow-waiver.
type funcRange struct {
	name   string
	lo, hi int // 1-based inclusive line range
}

// gateSpec describes one compiler gate.
type gateSpec struct {
	name      string // diagnostic analyzer name
	gcflags   string
	directive string // function-doc opt-in
	waiver    string // line-scoped allow-directive
	match     *regexp.Regexp
	message   func(fn string, detail string) string
}

var bceGate = &gateSpec{
	name:      "bce",
	gcflags:   "-d=ssa/check_bce",
	directive: "nobce",
	waiver:    "allow-boundscheck",
	match:     regexp.MustCompile(`Found (IsInBounds|IsSliceInBounds)`),
	message: func(fn, detail string) string {
		return fmt.Sprintf("bounds check (%s) survives in //ihtl:nobce function %s; restructure the access or waive with //ihtl:allow-boundscheck <reason>", detail, fn)
	},
}

var escapeGate = &gateSpec{
	name:      "escape",
	gcflags:   "-m",
	directive: "noescape",
	waiver:    "allow-escape",
	match:     regexp.MustCompile(`escapes to heap|moved to heap`),
	message: func(fn, detail string) string {
		return fmt.Sprintf("%s in //ihtl:noescape function %s; keep hot-path values on the stack or waive with //ihtl:allow-escape <reason>", detail, fn)
	},
}

// moduleAnnotations is the syntax-only index the gates match compiler
// positions against: per module-relative file, the annotated function
// ranges and the waived lines. One parse serves both gates.
type moduleAnnotations struct {
	root string
	// funcs[directive][relpath] -> ranges
	funcs map[string]map[string][]funcRange
	// waived[waiverName][relpath] -> set of line numbers the directive
	// silences (the directive's own line and the line below it, the
	// same rule as analyzers.lineSuppressed).
	waived map[string]map[string]map[int]bool
}

// loadAnnotations parses every non-test .go file under root (skipping
// testdata and hidden directories) with comments, recording the gate
// directives. Syntax-only: the gates need line ranges, not types. A
// gate directive on a function with no Go body (assembly) is an error:
// the compiler reports nothing inside it, so the gate would pass it
// unseen.
func loadAnnotations(root string, gates []*gateSpec) (*moduleAnnotations, error) {
	ann := &moduleAnnotations{
		root:   root,
		funcs:  make(map[string]map[string][]funcRange),
		waived: make(map[string]map[string]map[int]bool),
	}
	for _, g := range gates {
		ann.funcs[g.directive] = make(map[string][]funcRange)
		ann.waived[g.waiver] = make(map[string]map[int]bool)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, g := range gates {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !analyzers.FuncHasDirective(fd, g.directive) {
					continue
				}
				if fd.Body == nil {
					return fmt.Errorf("%s: //ihtl:%s on %s, which has no Go body for the compiler to report on; annotate its Go twin instead (analyzers.AssemblyTwins)", rel, g.directive, fd.Name.Name)
				}
				ann.funcs[g.directive][rel] = append(ann.funcs[g.directive][rel], funcRange{
					name: fd.Name.Name,
					lo:   fset.Position(fd.Pos()).Line,
					hi:   fset.Position(fd.End()).Line,
				})
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//ihtl:"+g.waiver) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, "//ihtl:"+g.waiver)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue
					}
					lines := ann.waived[g.waiver][rel]
					if lines == nil {
						lines = make(map[int]bool)
						ann.waived[g.waiver][rel] = lines
					}
					l := fset.Position(c.Pos()).Line
					lines[l] = true
					lines[l+1] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ann, nil
}

// diagLine matches one compiler diagnostic: path:line:col: message.
var diagLine = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*)$`)

// runGate builds the given packages with the gate's gcflags and maps
// matching compiler output into diagnostics against the annotation
// index. Paths in the compiler output are relative to root because the
// build runs there.
func runGate(g *gateSpec, ann *moduleAnnotations, patterns []string) ([]analyzers.Diagnostic, error) {
	args := append([]string{"build", "-gcflags=" + g.gcflags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = ann.root
	out, err := cmd.CombinedOutput()
	var diags []analyzers.Diagnostic
	for _, line := range strings.Split(string(out), "\n") {
		m := diagLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || !g.match.MatchString(m[4]) {
			continue
		}
		rel := filepath.ToSlash(m[1])
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		fn := ""
		for _, fr := range ann.funcs[g.directive][filepath.FromSlash(rel)] {
			if fr.lo <= lineNo && lineNo <= fr.hi {
				fn = fr.name
				break
			}
		}
		if fn == "" {
			continue // outside every annotated function
		}
		if ann.waived[g.waiver][filepath.FromSlash(rel)][lineNo] {
			continue
		}
		diags = append(diags, analyzers.Diagnostic{
			Analyzer: g.name,
			Pos: token.Position{
				Filename: filepath.Join(ann.root, filepath.FromSlash(rel)),
				Line:     lineNo,
				Column:   col,
			},
			Message: g.message(fn, g.match.FindString(m[4])),
		})
	}
	if err != nil && len(diags) == 0 {
		// The build itself failed (diagnostic flags never fail a
		// compilable build): surface the compiler's own output.
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return diags, nil
}

// runGates executes the requested gates and returns their combined
// diagnostics.
func runGates(root string, patterns []string, gates []*gateSpec) ([]analyzers.Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	ann, err := loadAnnotations(root, gates)
	if err != nil {
		return nil, err
	}
	var diags []analyzers.Diagnostic
	for _, g := range gates {
		ds, err := runGate(g, ann, patterns)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	return diags, nil
}
