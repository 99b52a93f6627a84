package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// DeadCode reports the module's unreached internal surface: every
// exported func, method, type, const, var and struct field declared in
// a non-test file of a package under internal/ that no non-test code
// references outside the identifier's own declaration. A test is not a
// caller: code that only a _test.go file reaches is dead, because the
// loader never parses test files.
//
// Three kinds of use reach an identifier:
//
//   - a use from any package of the module, cmd/ and examples/
//     included, other than one inside the identifier's own declaration
//     (a recursive call, or a method's receiver naming its type);
//   - a use from the benchmark module (benchmark/, import path
//     ihtl/benchmark), which the module walk loads with the rest;
//   - membership in the public API: every method and field of an
//     internal type that the root package aliases (ihtl.Pool =
//     sched.Pool makes Pool's methods public) is reached.
//
// A method that implements an interface is reached as well, whether the
// interface is the module's own or the standard library's (fmt.Stringer,
// heap.Interface, types.Importer): the call goes through the interface
// and no static use names it. Interface methods and embedded fields are
// not judged.
//
// A field is reached only where it is read. A write is not a use: a
// composite-literal key, the left side of an assignment or op-assign,
// and the operand of ++/--. A field with a json struct tag counts as
// read, because encoding/json reads it through reflection.
//
// Like the call graph the other module passes walk, the pass
// under-approximates: an identifier reached only from other dead code
// is not reported until that code is gone, so deletions cascade and the
// pass is re-run until it reports nothing new. An identifier kept on
// purpose carries //ihtl:allow-dead <reason> on its declaration line or
// the line above; a waiver that waives nothing (the identifier is
// referenced after all) is itself a finding, so the list only shrinks.
//
// The pass decides only on a whole-module load (./...): on a narrower
// pattern every identifier's users may be out of view, so it reports
// nothing.
var DeadCode = &Analyzer{
	Name:      "deadcode",
	Doc:       "report exported internal/ identifiers that no non-test code references",
	RunModule: runDeadCode,
}

func runDeadCode(passes []*Pass) error {
	if len(passes) == 0 || passes[0].loader == nil {
		return nil
	}
	l := passes[0].loader
	paths, err := l.walkPackages()
	if err != nil {
		return err
	}
	loaded := make(map[string]bool, len(passes))
	for _, p := range passes {
		loaded[p.Pkg.Path()] = true
	}
	for _, path := range paths {
		if !loaded[path] {
			return nil // not a whole-module load
		}
	}
	reportDeadCode(passes, l.ModPath)
	return nil
}

// deadCandidate is one judged identifier: its object, what the message
// calls it, the span of its own declaration and the pass declaring it.
type deadCandidate struct {
	obj    types.Object
	what   string // "method Engine.Step"
	lo, hi token.Pos
	pass   *Pass
	json   bool // a field with a json struct tag
}

// reportDeadCode runs the pass over passes, judging the packages under
// root+"/internal/" and taking root itself as the public API.
func reportDeadCode(passes []*Pass, root string) {
	byObj := make(map[types.Object]*deadCandidate)
	for _, pass := range passes {
		if strings.HasPrefix(pass.Pkg.Path(), root+"/internal/") {
			for _, f := range pass.Files {
				addDeadCandidates(pass, f, byObj)
			}
		}
	}

	reached := make(map[types.Object]bool)
	for _, c := range byObj {
		if c.json {
			reached[c.obj] = true
		}
	}
	for _, pass := range passes {
		// A receiver names the method's owner; it does not use the type.
		recv := make(map[*ast.Ident]bool)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		writes := fieldWrites(pass)
		for id, obj := range pass.Info.Uses {
			if c := byObj[originOf(obj)]; c != nil && !recv[id] && !writes[id] && (id.Pos() < c.lo || id.Pos() >= c.hi) {
				reached[c.obj] = true
			}
		}
		if pass.Pkg.Path() == root {
			scope := pass.Pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						markPublic(named, reached)
					}
				}
			}
		}
	}
	ifaces := interfacesByMethod(passes)
	for _, c := range byObj {
		if fn, ok := c.obj.(*types.Func); ok && !reached[c.obj] && implementsSome(fn, ifaces) {
			reached[c.obj] = true
		}
	}

	for _, c := range byObj { // RunAnalyzers sorts what this reports
		waived := c.pass.suppressed(c.obj.Pos(), "allow-dead")
		used, uses := "referenced", "references"
		if isField(c.obj) {
			used, uses = "read", "reads"
		}
		switch {
		case !reached[c.obj] && !waived:
			c.pass.Reportf(c.obj.Pos(), "exported %s is %s by no non-test code; delete it or waive with //ihtl:allow-dead <reason>", c.what, used)
		case reached[c.obj] && waived:
			c.pass.Reportf(c.obj.Pos(), "//ihtl:allow-dead on %s, which non-test code %s; drop the waiver", c.what, uses)
		}
	}
}

// isField reports whether obj is a struct field.
func isField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// fieldWrites returns the identifiers of pass that name a struct field
// only to write it: a composite-literal key, the selector on the left
// of an assignment or op-assign, and the operand of ++/--.
func fieldWrites(pass *Pass) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && isField(pass.Info.Uses[sel.Sel]) {
			writes[sel.Sel] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && isField(pass.Info.Uses[id]) {
					writes[id] = true
				}
			}
			return true
		})
	}
	return writes
}

// addDeadCandidates adds to cands every exported package-level func,
// method, type, const and var declared in f, and every exported,
// non-embedded field of its struct types.
func addDeadCandidates(pass *Pass, f *ast.File, cands map[types.Object]*deadCandidate) {
	add := func(id *ast.Ident, what string, decl ast.Node) {
		if obj := pass.Info.Defs[id]; obj != nil && id.IsExported() {
			if fn, ok := obj.(*types.Func); ok && recvNamed(fn) != nil {
				what = "method " + recvNamed(fn).Obj().Name() + "." + id.Name
			}
			cands[obj] = &deadCandidate{obj: obj, what: what, lo: decl.Pos(), hi: decl.End(), pass: pass}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Name, "func "+d.Name.Name, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, "type "+s.Name.Name, s)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								add(id, "field "+s.Name.Name+"."+id.Name, field)
								if c := cands[pass.Info.Defs[id]]; c != nil && field.Tag != nil {
									tag, _ := strconv.Unquote(field.Tag.Value)
									name, ok := reflect.StructTag(tag).Lookup("json")
									c.json = ok && name != "-"
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, d.Tok.String()+" "+id.Name, s)
					}
				}
			}
		}
	}
}

// recvNamed returns the type method fn is declared on; nil for a func.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// originOf maps an instantiated generic method or field to the object
// its declaration defines.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markPublic marks every method of named and *named, promoted ones
// included, and every field of its struct and of the structs it embeds,
// as reached.
func markPublic(named *types.Named, reached map[types.Object]bool) {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		reached[originOf(ms.At(i).Obj())] = true
	}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			reached[originOf(st.Field(i))] = true
			if st.Field(i).Embedded() {
				walk(st.Field(i).Type())
			}
		}
	}
	walk(named)
}

// interfacesByMethod indexes, by method name, every named interface of
// the loaded packages and of everything they import, the standard
// library included, plus the interface literals and instantiated
// generic interfaces the loaded code uses.
func interfacesByMethod(passes []*Pass) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
			return // an uninstantiated generic interface
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pass := range passes {
		visit(pass.Pkg)
		for _, tv := range pass.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return out
}

// implementsSome reports whether the type m is declared on, or a
// pointer to it, implements an interface that has a method of m's name.
// A generic type is judged by the method's name alone.
func implementsSome(m *types.Func, ifaces map[string][]*types.Interface) bool {
	named := recvNamed(m)
	if named == nil || len(ifaces[m.Name()]) == 0 {
		return false
	}
	if named.TypeParams().Len() > 0 {
		return true
	}
	for _, it := range ifaces[m.Name()] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
