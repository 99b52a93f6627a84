package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc rejects allocating constructs inside functions annotated
// //ihtl:noalloc. The fused Step/StepBatch pipelines owe their
// throughput to zero per-dispatch allocations (PR 1/2 pin a few widths
// with testing.AllocsPerRun; this pass covers every annotated function
// at every call shape). A function may still call an UN-annotated
// helper — that is the deliberate escape hatch for construction-time
// and ablation paths — but everything it does inline, and every
// annotated callee, is checked. A callee of its package with no Go body
// (assembly) must be listed in AssemblyTwins, whose Go twins this pass
// checks in its place.
//
// Flagged constructs: make/new, append (may grow), function literals
// (closure capture), map and slice composite literals, &composite
// literals, string concatenation, string<->[]byte/[]rune conversions,
// conversions or argument/return/assignment boxing into interfaces,
// map writes, go statements, and any call into fmt or log.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "reject allocating constructs in //ihtl:noalloc functions",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	checkAssemblyTwins(pass)
	bodyless := bodylessFuncs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcHasDirective(fn, "noalloc") {
				continue
			}
			checkNoAllocBody(pass, fn, bodyless)
		}
	}
	return nil
}

func checkNoAllocBody(pass *Pass, fn *ast.FuncDecl, bodyless map[*types.Func]*ast.FuncDecl) {
	sig, _ := pass.Info.Defs[fn.Name].Type().(*types.Signature)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but creates a function literal (closures allocate); prebuild the closure at construction time", fn.Name.Name)
			return false // the literal's own body runs under its creator's budget
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but starts a goroutine", fn.Name.Name)
		case *ast.CallExpr:
			checkNoAllocCall(pass, fn, n)
			if callee := pass.staticCallee(n); callee != nil && bodyless[callee] != nil && !isAssemblyKernel(callee) {
				pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but calls %s, which has no Go body for any pass to check; give it a Go twin and list the pair in analyzers.AssemblyTwins", fn.Name.Name, callee.Name())
			}
		case *ast.CompositeLit:
			switch pass.typeOf(n).Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but builds a map literal", fn.Name.Name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but builds a slice literal", fn.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but heap-allocates a composite literal with &", fn.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.typeOf(n.X)) {
				pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but concatenates strings", fn.Name.Name)
			}
		case *ast.AssignStmt:
			checkNoAllocAssign(pass, fn, n)
		case *ast.ReturnStmt:
			checkNoAllocReturn(pass, fn, sig, n)
		}
		return true
	})
}

func checkNoAllocCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	// Builtins: only make, new and append allocate (panic's argument is
	// a constant in practice and pre-boxed by the compiler; clear/copy/
	// len/cap/min/max do not allocate).
	if obj := pass.calleeObject(call); obj != nil {
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but calls make", fn.Name.Name)
			case "new":
				pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but calls new", fn.Name.Name)
			case "append":
				pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but calls append (may grow the backing array)", fn.Name.Name)
			}
			return
		}
		if p := objPkgPath(obj); p == "fmt" || p == "log" {
			pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but calls %s.%s (formatting allocates)", fn.Name.Name, p, obj.Name())
			return
		}
	}
	// Conversions: T(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) != 1 {
			return
		}
		src := pass.typeOf(call.Args[0])
		switch {
		case isInterface(dst) && !isInterface(src) && !isUntypedNil(pass, call.Args[0]):
			pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but converts %s to interface %s (boxing allocates)", fn.Name.Name, src, dst)
		case isString(dst) && isByteOrRuneSlice(src):
			pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but converts a slice to string", fn.Name.Name)
		case isByteOrRuneSlice(dst) && isString(src):
			pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but converts a string to a slice", fn.Name.Name)
		}
		return
	}
	// Ordinary call: check interface boxing of arguments.
	sig, ok := pass.typeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing an existing slice: no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) && !isTypeParam(pt) && !isInterface(pass.typeOf(arg)) && !isUntypedNil(pass, arg) {
			pass.Reportf(arg.Pos(), "%s is //ihtl:noalloc but passes %s as interface %s (boxing allocates)", fn.Name.Name, pass.typeOf(arg), pt)
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		pass.Reportf(call.Pos(), "%s is //ihtl:noalloc but expands arguments into a variadic call (allocates the argument slice)", fn.Name.Name)
	}
}

func checkNoAllocAssign(pass *Pass, fn *ast.FuncDecl, n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.typeOf(n.Lhs[0])) {
		pass.Reportf(n.Pos(), "%s is //ihtl:noalloc but concatenates strings", fn.Name.Name)
	}
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := pass.typeOf(ix.X).Underlying().(*types.Map); isMap {
				pass.Reportf(lhs.Pos(), "%s is //ihtl:noalloc but writes to a map (may allocate)", fn.Name.Name)
			}
		}
	}
	// Boxing through assignment: concrete RHS into interface-typed LHS.
	if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			lt := pass.typeOf(lhs)
			if lt == nil || !isInterface(lt) || isTypeParam(lt) {
				continue
			}
			if rt := pass.typeOf(n.Rhs[i]); rt != nil && !isInterface(rt) && !isUntypedNil(pass, n.Rhs[i]) {
				pass.Reportf(n.Rhs[i].Pos(), "%s is //ihtl:noalloc but assigns %s to interface %s (boxing allocates)", fn.Name.Name, rt, lt)
			}
		}
	}
}

func checkNoAllocReturn(pass *Pass, fn *ast.FuncDecl, sig *types.Signature, n *ast.ReturnStmt) {
	if sig == nil || len(n.Results) != sig.Results().Len() {
		return
	}
	for i, res := range n.Results {
		rt := sig.Results().At(i).Type()
		if isInterface(rt) && !isTypeParam(rt) && !isInterface(pass.typeOf(res)) && !isUntypedNil(pass, res) {
			pass.Reportf(res.Pos(), "%s is //ihtl:noalloc but returns %s as interface %s (boxing allocates)", fn.Name.Name, pass.typeOf(res), rt)
		}
	}
}

// typeOf returns the type of e, or types.Typ[Invalid] when unknown.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return types.Typ[types.Invalid]
}

// calleeObject resolves the object a call's Fun refers to (builtin,
// function, or method), or nil.
func (p *Pass) calleeObject(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	return tv.IsNil()
}
