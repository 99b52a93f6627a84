package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// AssemblyTwins names every function the module declares without a Go
// body (an assembly kernel) that a //ihtl:noalloc function may call,
// keyed "<package path>.<name>", with the Go twin that states the same
// contract in Go. No pass can read assembly, so the module's passes and
// gates check the twin in its place: noalloc requires the twin, in the
// same package and with a body, to carry //ihtl:noalloc, //ihtl:nobce
// and //ihtl:noescape (the -bce and -escape gates then compile it), and
// the kernel's differential test holds the assembly to the twin bit for
// bit. A body-less callee missing from this list is a noalloc finding,
// and so is an entry whose kernel is gone.
var AssemblyTwins = map[string]string{
	"ihtl/internal/core.pushTaskFlat8AVX2": "pushTaskFlat8",
	"ihtl/internal/core.pullRowFlat8AVX2":  "pullRowFlat8",
	"ihtl/internal/core.pullRowFlat4AVX2":  "pullRowFlat4",
	"ihtl/internal/core.pullEdgePairsAsm":  "pullEdgePairs",
	"ihtl/internal/core.pushEdgePairsAsm":  "pushEdgePairs",
	"ihtl/internal/core.pushTaskFlatAsm":   "pushTaskFlat",
	"ihtl/internal/analytics.pprRows8AVX2": "pprRows",
	"ihtl/internal/analytics.pprRows4AVX2": "pprRows",
}

// twinDirectives are what an assembly kernel's Go twin must carry.
var twinDirectives = []string{"noalloc", "nobce", "noescape"}

// bodylessFuncs indexes the functions pass's package declares without a
// body.
func bodylessFuncs(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body == nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					out[obj] = fd
				}
			}
		}
	}
	return out
}

// checkAssemblyTwins reports the AssemblyTwins entries of pass's
// package whose kernel is not declared here, or whose twin is not
// declared here with a body and every twinDirectives directive.
func checkAssemblyTwins(pass *Pass) {
	if len(pass.Files) == 0 {
		return
	}
	decls := make(map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				decls[fd.Name.Name] = fd
			}
		}
	}
	var names []string
	for key := range AssemblyTwins {
		if name, ok := strings.CutPrefix(key, pass.Pkg.Path()+"."); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		twin := AssemblyTwins[pass.Pkg.Path()+"."+name]
		kernel := decls[name]
		if kernel == nil { // a build without the assembly declares a stub with a body instead
			pass.Reportf(pass.Files[0].Package, "analyzers.AssemblyTwins lists %s, which this package does not declare; drop the entry", name)
			continue
		}
		td := decls[twin]
		if td == nil || td.Body == nil {
			pass.Reportf(kernel.Pos(), "assembly kernel %s has no Go twin %s with a body in this package (analyzers.AssemblyTwins)", name, twin)
			continue
		}
		for _, d := range twinDirectives {
			if !funcHasDirective(td, d) {
				pass.Reportf(td.Pos(), "%s is the Go twin of assembly kernel %s and must carry //ihtl:%s: no pass can check the assembly itself", twin, name, d)
			}
		}
	}
}

// isAssemblyKernel reports whether fn is listed in AssemblyTwins.
func isAssemblyKernel(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	_, ok := AssemblyTwins[fn.Pkg().Path()+"."+fn.Name()]
	return ok
}
