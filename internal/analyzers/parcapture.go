package analyzers

import (
	"go/ast"
	"go/types"
)

// parCaptureMethods are the sched.Pool entry points whose callback
// argument runs concurrently on every pool worker, including the
// ctx-aware fallible variants (same callback contract, same races).
var parCaptureMethods = map[string]bool{
	"Run":             true,
	"ForStatic":       true,
	"ForDynamic":      true,
	"ForSteal":        true,
	"ForStealWith":    true,
	"RunCtx":          true,
	"ForStaticCtx":    true,
	"ForDynamicCtx":   true,
	"ForStealCtx":     true,
	"ForStealWithCtx": true,
}

// ParCapture flags worker callbacks passed literally to sched.Pool
// dispatch APIs that write to captured state without deriving the
// destination from the callback's own parameters (worker id / range
// bounds). `sum += x` or `out[j] = v` with captured j is a data race
// every worker runs; `out[w] = v` and `dst[i]` for a loop variable
// local to the callback are the safe patterns this repo uses
// everywhere (per-worker slots, disjoint ranges). The check is
// syntactic and deliberately under-approximates: an index expression
// mentioning any callback parameter or callback-local variable is
// assumed range-derived and safe. Intentional captured writes (e.g.
// publishing under an external happens-before edge) are silenced with
// //ihtl:allow-capture <reason>.
var ParCapture = &Analyzer{
	Name: "parcapture",
	Doc:  "flag worker callbacks writing captured state not indexed by worker/range parameters",
	Run:  runParCapture,
}

func runParCapture(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPoolDispatch(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkWorkerLit(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// isPoolDispatch reports whether call is a dispatch method of
// ihtl/internal/sched.Pool.
func isPoolDispatch(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !parCaptureMethods[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.calleeObject(call).(*types.Func)
	if !ok || objPkgPath(fn) != "ihtl/internal/sched" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// checkWorkerLit inspects one worker callback literal for writes to
// captured state.
func checkWorkerLit(pass *Pass, lit *ast.FuncLit) {
	isLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
	}
	// indexSafe: the index expression mentions a callback parameter or
	// a callback-local variable, i.e. it is (assumed) derived from the
	// worker id or claimed range.
	indexSafe := func(idx ast.Expr) bool {
		safe := false
		ast.Inspect(idx, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; isLocal(obj) {
					if _, isVar := obj.(*types.Var); isVar {
						safe = true
						return false
					}
				}
			}
			return true
		})
		return safe
	}
	report := func(pos ast.Node, format string, args ...any) {
		if pass.suppressed(pos.Pos(), "allow-capture") {
			return
		}
		pass.Reportf(pos.Pos(), format, args...)
	}
	checkTarget := func(lhs ast.Expr, isDefine bool) {
		switch t := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if isDefine || t.Name == "_" {
				return
			}
			obj := pass.Info.Uses[t]
			if obj == nil {
				obj = pass.Info.Defs[t]
			}
			if v, ok := obj.(*types.Var); ok && !isLocal(v) && !v.IsField() {
				report(t, "worker callback writes captured variable %s; every pool worker races on it — accumulate into worker-indexed slots or use atomics (//ihtl:allow-capture to override)", t.Name)
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(t.X).(*ast.Ident); ok {
				if v, ok := pass.Info.Uses[id].(*types.Var); ok && !isLocal(v) {
					report(t, "worker callback writes through captured pointer %s; every pool worker races on it (//ihtl:allow-capture to override)", id.Name)
				}
			}
		case *ast.IndexExpr:
			base := rootIdent(t.X)
			if base == nil {
				return
			}
			obj := pass.Info.Uses[base]
			if v, ok := obj.(*types.Var); !ok || isLocal(v) {
				return
			}
			if _, isMap := pass.typeOf(t.X).Underlying().(*types.Map); isMap {
				report(t, "worker callback writes captured map %s; map writes race regardless of key (//ihtl:allow-capture to override)", base.Name)
				return
			}
			if !indexSafe(t.Index) {
				report(t, "worker callback writes captured slice %s at an index not derived from the worker/range parameters (//ihtl:allow-capture to override)", base.Name)
			}
		case *ast.SelectorExpr:
			if base := rootIdent(t); base != nil {
				if v, ok := pass.Info.Uses[base].(*types.Var); ok && !isLocal(v) {
					report(t, "worker callback writes field %s of captured %s; every pool worker races on it (//ihtl:allow-capture to override)", t.Sel.Name, base.Name)
				}
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkTarget(lhs, n.Tok.String() == ":=")
			}
		case *ast.IncDecStmt:
			checkTarget(n.X, false)
		}
		return true
	})
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (e.g. nrm for nrm.partial[w]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}
