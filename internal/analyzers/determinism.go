package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// determinismPkgs are the kernel/build packages whose outputs must be
// bit-for-bit reproducible: every results/ ablation and the parallel-
// vs-sequential differential suites compare their outputs exactly.
// Wall-clock instrumentation (the workerClock / BuildStats idiom) is
// recognised structurally and stays legal; anything else that lets
// wall time, scheduler interleavings or map iteration order leak into
// outputs is flagged.
var determinismPkgs = map[string]bool{
	"ihtl/internal/core":      true,
	"ihtl/internal/spmv":      true,
	"ihtl/internal/graph":     true,
	"ihtl/internal/compress":  true,
	"ihtl/internal/order":     true,
	"ihtl/internal/analytics": true,
	"ihtl/internal/gen":       true,
}

// Determinism enforces reproducibility in the kernel/build packages
// (plus any file opting in with a //ihtl:deterministic comment):
//
//   - math/rand and math/rand/v2 are banned (waive a deliberate use
//     with //ihtl:allow-rand <reason> on the import line) — seeded,
//     splittable randomness lives in internal/xrand, which is a pure
//     function of its seed across Go releases and platforms;
//   - time.Now is only legal in the duration-instrumentation idiom
//     (t := time.Now() consumed solely by time.Since / Time.Sub, the
//     workerClock pattern) — a timestamp that flows anywhere else can
//     reach an output or a branch; escape hatches are
//     //ihtl:allow-walltime <reason> on the line or an
//     //ihtl:instrumentation directive on the function;
//   - ranging over a map while appending the elements to a slice
//     (without sorting it immediately after) or while accumulating
//     floats leaks the randomised iteration order into element order
//     or FP rounding; silence deliberate cases with
//     //ihtl:allow-maporder <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock, math/rand and map-order leaks in kernel/build packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	inScope := determinismPkgs[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if !inScope && !fileHasDirective(f, "deterministic") {
			continue
		}
		checkRandImports(pass, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !funcHasDirective(fn, "instrumentation") {
				checkWalltime(pass, fn)
			}
			checkMapOrder(pass, fn)
		}
	}
	return nil
}

// checkRandImports flags math/rand imports (any version).
func checkRandImports(pass *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		if pass.suppressed(imp.Pos(), "allow-rand") {
			continue
		}
		pass.Reportf(imp.Pos(),
			"kernel/build package imports %s; deterministic seeded randomness must come from internal/xrand", path)
	}
}

// checkWalltime verifies every time.Now call in fn is pure duration
// instrumentation: its value is either consumed directly by a Sub
// call, or lands in a variable whose every use is time.Since(v),
// v.Sub(u), u.Sub(v), or reassignment.
func checkWalltime(pass *Pass, fn *ast.FuncDecl) {
	type timer struct {
		obj types.Object
		pos token.Pos
	}
	var timers []timer
	inspectStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isTimeCall(pass, call, "Now") {
			return true
		}
		if pass.suppressed(call.Pos(), "allow-walltime") {
			return true
		}
		parent := ast.Node(nil)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		// time.Now().Sub(u): consumed in place.
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sub" {
			return true
		}
		// t := time.Now() / t = time.Now(): defer judgement to t's uses.
		if as, ok := parent.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil {
					timers = append(timers, timer{obj: obj, pos: call.Pos()})
					return true
				}
			}
		}
		pass.Reportf(call.Pos(),
			"%s lets time.Now escape the duration-instrumentation idiom; wall time must not reach outputs (waive with //ihtl:allow-walltime <reason> or annotate the function //ihtl:instrumentation)",
			fn.Name.Name)
		return true
	})
	for _, t := range timers {
		if bad := timerEscapes(pass, fn, t.obj); bad != token.NoPos {
			pass.Reportf(t.pos,
				"%s stores time.Now in %s, which escapes the duration-instrumentation idiom at %s; wall time must not reach outputs (waive with //ihtl:allow-walltime <reason> or annotate the function //ihtl:instrumentation)",
				fn.Name.Name, t.obj.Name(), pass.Fset.Position(bad))
		}
	}
}

// timerEscapes returns the position of the first use of obj that is
// not duration instrumentation, or NoPos when every use is clean.
func timerEscapes(pass *Pass, fn *ast.FuncDecl, obj types.Object) token.Pos {
	bad := token.NoPos
	inspectStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		if bad != token.NoPos {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != obj {
			return true
		}
		if timerUseOK(pass, id, stack) {
			return true
		}
		bad = id.Pos()
		return false
	})
	return bad
}

// timerUseOK reports whether the identifier use at the top of stack is
// one of the legal instrumentation shapes.
func timerUseOK(pass *Pass, id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.AssignStmt:
		// Reassignment target (t = time.Now() again) is fine.
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(id) {
				return true
			}
		}
	case *ast.SelectorExpr:
		// Receiver of t.Sub(...).
		if p.X == ast.Expr(id) && p.Sel.Name == "Sub" {
			return true
		}
	case *ast.CallExpr:
		// Argument of time.Since(t) or u.Sub(t).
		if isTimeCall(pass, p, "Since") {
			return true
		}
		if sel, ok := ast.Unparen(p.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Sub" {
			if fn, ok := pass.calleeObject(p).(*types.Func); ok && objPkgPath(fn) == "time" {
				return true
			}
		}
	}
	return false
}

// isTimeCall reports whether call invokes time.<name>.
func isTimeCall(pass *Pass, call *ast.CallExpr, name string) bool {
	fn, ok := pass.calleeObject(call).(*types.Func)
	return ok && fn.Name() == name && objPkgPath(fn) == "time"
}

// checkMapOrder flags range-over-map loops whose bodies leak iteration
// order: appending the elements to an outer slice that is not sorted
// in the statements that follow, or compound-accumulating into an
// outer floating-point variable (FP addition is not associative, so
// the rounding depends on visit order).
func checkMapOrder(pass *Pass, fn *ast.FuncDecl) {
	inspectStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := pass.typeOf(rng.X).Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fn, rng, enclosingBlock(stack))
		return true
	})
}

// enclosingBlock returns the innermost *ast.BlockStmt on the stack.
func enclosingBlock(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}

func checkMapRangeBody(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, block *ast.BlockStmt) {
	outer := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
			return nil // declared inside the loop: order cannot leak out
		}
		return obj
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// x = append(x, ...) into an outer slice.
		if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if b, ok := pass.calleeObject(call).(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if i >= len(as.Lhs) {
					continue
				}
				obj := outer(as.Lhs[i])
				if obj == nil || sortedAfter(pass, rng, block, obj) || pass.suppressed(as.Pos(), "allow-maporder") {
					continue
				}
				pass.Reportf(as.Pos(),
					"%s appends to %s while ranging over a map and never sorts it; element order depends on map iteration order (sort afterwards or waive with //ihtl:allow-maporder <reason>)",
					fn.Name.Name, obj.Name())
			}
			return true
		}
		// f += x into an outer float: rounding depends on visit order.
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				obj := outer(lhs)
				if obj == nil || !isFloat(obj.Type()) {
					continue
				}
				if pass.suppressed(as.Pos(), "allow-maporder") {
					continue
				}
				pass.Reportf(as.Pos(),
					"%s accumulates float %s while ranging over a map; FP rounding depends on map iteration order (accumulate in sorted order or waive with //ihtl:allow-maporder <reason>)",
					fn.Name.Name, obj.Name())
			}
		}
		return true
	})
}

// sortedAfter reports whether a statement after rng in the same block
// sorts obj (slices.Sort*, sort.Slice*, sort.Sort, sort.Strings,
// sort.Ints, sort.Float64s) — the repo's canonical "collect then
// sort" idiom.
func sortedAfter(pass *Pass, rng *ast.RangeStmt, block *ast.BlockStmt, obj types.Object) bool {
	if block == nil {
		return false
	}
	found := false
	for _, stmt := range block.List {
		if stmt.Pos() <= rng.Pos() {
			continue
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := pass.calleeObject(call).(*types.Func)
			if !ok {
				return true
			}
			pkg := objPkgPath(fn)
			if (pkg != "sort" && pkg != "slices") || !strings.HasPrefix(fn.Name(), "Sort") &&
				!strings.HasPrefix(fn.Name(), "Slice") && fn.Name() != "Strings" &&
				fn.Name() != "Ints" && fn.Name() != "Float64s" {
				return true
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if u := pass.Info.Uses[id]; u == obj {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			break
		}
	}
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
