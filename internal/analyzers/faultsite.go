package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// FaultSite cross-checks the faultinject.Site catalog against the
// whole module. The deterministic fault-injection harness (PR 5) only
// earns its keep if the catalog and the instrumented code agree; this
// pass pins the three directions of that agreement:
//
//  1. every declared Site* constant is passed to Fire or Poison
//     somewhere in the module — a declared-but-never-fired site is a
//     recovery scenario nothing can exercise (delete it or wire it);
//  2. every Fire/Poison call names a declared Site constant — a
//     string literal or locally-minted site silently escapes the
//     catalog the fault suites and the meta-test enumerate
//     (//ihtl:allow-sitearg <reason> waives a deliberate dynamic
//     site);
//  3. in the execution-layer packages (internal/sched, internal/core)
//     every Run/ForStatic pool dispatch whose callback is statically
//     resolvable should reach a Fire/Poison site somewhere in the
//     callback's intra-module call graph, so injected faults can land
//     inside every dispatch shape. The dynamic modes (ForDynamic,
//     ForSteal, ForStealWith and their Ctx variants) are
//     exempt: their claim loops fire SiteSchedClaim inside the pool
//     worker once per claimed unit, so every dynamic dispatch is
//     already injectable at the pool layer. Static dispatches that are
//     deliberately uninstrumented (construction-time fills inside a
//     Fallible region, trivial zeroing loops) carry
//     //ihtl:allow-nosite <reason>.
//
// Callbacks the pass cannot resolve statically (func values stored in
// struct fields, e.g. e.fusedJob) are out of reach and are checked at
// their own declaration sites instead, where the worker loops carry
// the sites directly.
var FaultSite = &Analyzer{
	Name:      "faultsite",
	Doc:       "cross-check the faultinject.Site catalog against fire sites and dispatch bodies",
	RunModule: runFaultSite,
}

// faultSitePkgs are the execution-layer packages whose dispatch bodies
// must be reachable by fault injection (rule 3).
var faultSitePkgs = map[string]bool{
	"ihtl/internal/sched": true,
	"ihtl/internal/core":  true,
	// The serving daemon's admission/batch/spool paths carry their own
	// sites (SiteServe*); any pool dispatch it grows must stay
	// injectable like the engines beneath it.
	"ihtl/internal/serve": true,
}

func runFaultSite(passes []*Pass) error {
	fi := findFaultinject(passes)
	if fi == nil {
		return nil // module (or testdata set) carries no fault harness
	}
	declared := declaredSites(fi)
	if len(declared) == 0 {
		return nil
	}
	idx := buildFuncIndex(passes)

	// Rules 1 and 2: collect Fire/Poison arguments module-wide.
	used := make(map[types.Object]bool)
	for _, pass := range passes {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isFireCall(pass, fi.Pkg, call) || len(call.Args) == 0 {
					return true
				}
				if obj := siteConstOf(pass, call.Args[0]); obj != nil && declared[obj] {
					used[obj] = true
					return true
				}
				if !pass.suppressed(call.Pos(), "allow-sitearg") {
					pass.Reportf(call.Args[0].Pos(),
						"fault site argument is not a declared faultinject.Site constant; sites outside the catalog escape the fault suites (declare a Site* constant or waive with //ihtl:allow-sitearg <reason>)")
				}
				return true
			})
		}
	}
	reportUnfired(fi, declared, used)

	// Rule 3: dispatch bodies in the execution-layer packages.
	fires := newFireReach(fi.Pkg, idx)
	for _, pass := range passes {
		if !faultSitePkgs[pass.Pkg.Path()] && !passHasDirective(pass, "faultsite-scope") {
			continue
		}
		checkDispatchSites(pass, idx, fires)
	}
	return nil
}

// passHasDirective reports whether any file of the pass carries the
// given file-scoped directive (testdata packages use it to opt into
// the path-keyed scopes).
func passHasDirective(pass *Pass, name string) bool {
	for _, f := range pass.Files {
		if fileHasDirective(f, name) {
			return true
		}
	}
	return false
}

// findFaultinject locates the fault-injection harness among the loaded
// packages: the package named faultinject declaring the Site type.
func findFaultinject(passes []*Pass) *Pass {
	for _, pass := range passes {
		if pass.Pkg.Name() != "faultinject" {
			continue
		}
		if obj := pass.Pkg.Scope().Lookup("Site"); obj != nil {
			if _, ok := obj.(*types.TypeName); ok {
				return pass
			}
		}
	}
	return nil
}

// declaredSites returns the catalog: package-level Site* constants of
// type Site.
func declaredSites(fi *Pass) map[types.Object]bool {
	siteType := fi.Pkg.Scope().Lookup("Site").Type()
	out := make(map[types.Object]bool)
	for _, name := range fi.Pkg.Scope().Names() {
		obj := fi.Pkg.Scope().Lookup(name)
		c, ok := obj.(*types.Const)
		if !ok || !strings.HasPrefix(name, "Site") || name == "Site" {
			continue
		}
		if types.Identical(c.Type(), siteType) {
			out[c] = true
		}
	}
	return out
}

// isFireCall reports whether call invokes Fire or Poison of the
// harness package.
func isFireCall(pass *Pass, harness *types.Package, call *ast.CallExpr) bool {
	fn, ok := pass.calleeObject(call).(*types.Func)
	if !ok || fn.Pkg() != harness {
		return false
	}
	return fn.Name() == "Fire" || fn.Name() == "Poison"
}

// siteConstOf resolves arg to the Site constant object it names, or
// nil for anything dynamic.
func siteConstOf(pass *Pass, arg ast.Expr) types.Object {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		if c, ok := pass.Info.Uses[e].(*types.Const); ok {
			return c
		}
	case *ast.SelectorExpr:
		if c, ok := pass.Info.Uses[e.Sel].(*types.Const); ok {
			return c
		}
	}
	return nil
}

// reportUnfired reports catalog entries nothing fires (rule 1).
func reportUnfired(fi *Pass, declared, used map[types.Object]bool) {
	// Report in source order for stable output.
	for _, f := range fi.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for _, name := range vs.Names {
				obj := fi.Info.Defs[name]
				if obj == nil || !declared[obj] || used[obj] {
					continue
				}
				if fi.suppressed(name.Pos(), "allow-nosite") {
					continue
				}
				fi.Reportf(name.Pos(),
					"%s is declared but never passed to Fire or Poison; no fault plan can exercise it (delete it or wire it into the instrumented code)", name.Name)
			}
			return true
		})
	}
}

// fireReach memoises "does this function's intra-module call graph
// contain a Fire/Poison call".
type fireReach struct {
	harness *types.Package
	idx     funcIndex
	memo    map[*types.Func]bool
}

func newFireReach(harness *types.Package, idx funcIndex) *fireReach {
	return &fireReach{harness: harness, idx: idx, memo: make(map[*types.Func]bool)}
}

func (r *fireReach) reaches(fn *types.Func) bool {
	if v, ok := r.memo[fn]; ok {
		return v
	}
	r.memo[fn] = false // cycle guard: a cycle with no site fires nothing
	found := false
	walkCallees(r.idx, fn, func(cur *types.Func, e funcEntry) bool {
		if found {
			return false
		}
		ast.Inspect(e.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isFireCall(e.pass, r.harness, call) {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	r.memo[fn] = found
	return found
}

// checkDispatchSites applies rule 3 to one package: every statically
// resolvable dispatch callback must reach a fire site.
func checkDispatchSites(pass *Pass, idx funcIndex, fires *fireReach) {
	// Only the barrier-free static modes need a body site; the dynamic
	// claim loops fire SiteSchedClaim at the pool layer.
	staticModes := map[string]bool{
		"Run": true, "RunCtx": true, "ForStatic": true, "ForStaticCtx": true,
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !staticModes[poolDispatchName(pass, call)] {
				return true
			}
			cb, resolvable := dispatchCallback(pass, idx, call)
			if !resolvable {
				return true
			}
			covered := false
			switch cb := cb.(type) {
			case *ast.FuncLit:
				ast.Inspect(cb.Body, func(n ast.Node) bool {
					if covered {
						return false
					}
					inner, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if isFireCall(pass, fires.harness, inner) {
						covered = true
						return false
					}
					if callee := pass.staticCallee(inner); callee != nil {
						if _, inModule := idx[callee]; inModule && fires.reaches(callee) {
							covered = true
							return false
						}
					}
					return true
				})
			case *types.Func:
				covered = fires.reaches(cb)
			}
			if covered || pass.suppressed(call.Pos(), "allow-nosite") {
				return true
			}
			pass.Reportf(call.Pos(),
				"dispatch callback reaches no faultinject site; injected faults cannot land in this dispatch (add a Fire site or waive with //ihtl:allow-nosite <reason>)")
			return true
		})
	}
}

// dispatchCallback extracts the callback of a pool dispatch call: the
// func literal, or the *types.Func of a named function/method value.
// resolvable is false when the callback is a dynamic func value (a
// stored field, a parameter), which the pass cannot follow.
func dispatchCallback(pass *Pass, idx funcIndex, call *ast.CallExpr) (cb any, resolvable bool) {
	for _, arg := range call.Args {
		if _, ok := pass.typeOf(arg).Underlying().(*types.Signature); !ok {
			continue
		}
		switch e := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			return e, true
		case *ast.Ident:
			if fn, ok := pass.Info.Uses[e].(*types.Func); ok {
				if _, inModule := idx[fn]; inModule {
					return fn, true
				}
			}
		case *ast.SelectorExpr:
			// Method value (e.mergeJob where mergeJob is a method) is
			// resolvable; a func-typed FIELD (e.fusedJob) is not.
			if sel, ok := pass.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					if _, inModule := idx[fn]; inModule {
						return fn, true
					}
				}
			}
		}
		return nil, false
	}
	return nil, false
}
