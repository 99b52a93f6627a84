package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxVariant maps each plain sched.Pool dispatch to its cancellation-
// aware replacement.
var ctxVariant = map[string]string{
	"Run":          "RunCtx",
	"ForStatic":    "ForStaticCtx",
	"ForDynamic":   "ForDynamicCtx",
	"ForSteal":     "ForStealCtx",
	"ForStealWith": "ForStealWithCtx",
}

// CtxLeak flags cancellation holes: inside a function that accepts a
// context.Context, dispatching on a sched.Pool through a plain (non-
// ctx) entry point means a cancelled context is never observed by the
// claim loops and a worker panic crashes the orchestrator instead of
// returning — exactly the hole PR 5 closed everywhere else. The fix is
// the *Ctx variant of the same dispatch.
//
// The same hole reopens one layer up (PR 10's serving daemon): a
// request handler carrying its request ctx that calls a plain
// engine dispatch or analytics driver (Step, RunPageRank, Build, ...)
// when a *Ctx sibling exists never observes the client hanging up.
// So the pass also flags any call, inside a ctx-carrying function,
// to a function or method F for which an F+"Ctx" sibling taking a
// context.Context is declared alongside it (same package for
// functions, same receiver type for methods).
//
// A function that opens a pool.Fallible(ctx) region is exempt: inside
// a region the plain dispatches ARE cancellation- and panic-aware by
// design (that is the region's contract), and the error surfaces at
// end(). Deliberate holes — e.g. a cleanup dispatch that must run even
// after cancellation, or a ctx-sibling call whose work is too short to
// be worth cancelling — carry //ihtl:allow-noctx <reason> on the line.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "flag non-ctx sched.Pool dispatches inside context-carrying functions",
	Run:  runCtxLeak,
}

func runCtxLeak(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasCtxParam(pass, fn) {
				continue
			}
			if callsFallible(pass, fn.Body) {
				continue
			}
			checkCtxLeakBody(pass, fn)
		}
	}
	return nil
}

// hasCtxParam reports whether fn declares a context.Context parameter.
func hasCtxParam(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := pass.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && objPkgPath(obj) == "context"
}

// callsFallible reports whether body opens a Fallible dispatch region
// anywhere (regions make the plain dispatches inside them ctx-aware).
func callsFallible(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Fallible" {
			if fn, ok := pass.calleeObject(call).(*types.Func); ok && objPkgPath(fn) == "ihtl/internal/sched" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func checkCtxLeakBody(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := poolDispatchName(pass, call); name != "" {
			variant, plain := ctxVariant[name]
			if !plain || pass.suppressed(call.Pos(), "allow-noctx") {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s carries a context.Context but dispatches via Pool.%s, which never observes cancellation; use %s (or open a Fallible region), or silence with //ihtl:allow-noctx <reason>",
				fn.Name.Name, name, variant)
			return true
		}
		callee, ok := pass.calleeObject(call).(*types.Func)
		if !ok {
			return true
		}
		if sib := ctxSibling(callee); sib != nil && !pass.suppressed(call.Pos(), "allow-noctx") {
			pass.Reportf(call.Pos(),
				"%s carries a context.Context but calls %s, which never observes cancellation; use %s, or silence with //ihtl:allow-noctx <reason>",
				fn.Name.Name, callee.Name(), sib.Name())
		}
		return true
	})
}

// ctxSibling returns the F+"Ctx" variant of fn when one is declared
// alongside it (same package for functions, same receiver type for
// methods) and actually takes a context.Context — the signal that the
// plain form is the cancellation-blind spelling of the same dispatch.
func ctxSibling(fn *types.Func) *types.Func {
	name := fn.Name()
	if strings.HasSuffix(name, "Ctx") || fn.Pkg() == nil {
		return nil
	}
	want := name + "Ctx"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		sel := types.NewMethodSet(recv.Type()).Lookup(fn.Pkg(), want)
		if sel == nil {
			return nil
		}
		if m, ok := sel.Obj().(*types.Func); ok && takesContext(m) {
			return m
		}
		return nil
	}
	if obj := fn.Pkg().Scope().Lookup(want); obj != nil {
		if f, ok := obj.(*types.Func); ok && takesContext(f) {
			return f
		}
	}
	return nil
}

// takesContext reports whether fn declares a context.Context
// parameter.
func takesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
