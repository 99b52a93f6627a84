package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField reports struct fields that are accessed both through
// sync/atomic pointer functions (atomic.AddInt64(&s.f, ...)) and
// through plain loads/stores anywhere in the module. Mixing the two
// is the classic latent race of a CAS-updated counter: the plain
// access compiles, passes single-threaded tests, and corrupts
// counts only under contention. Fields wrapped in the typed atomics
// (atomic.Int64 &c.) cannot be mixed and are the preferred fix;
// deliberate unsynchronised accesses (e.g. re-initialisation before a
// pool dispatch publishes the struct) are silenced per line with
// //ihtl:allow-plain <reason>.
//
// The pass is module-scoped: the atomic use and the plain use are
// often in different packages, so per-package analysis cannot see the
// pair. Object identity across packages holds because all packages
// are type-checked through one shared Loader.
var AtomicField = &Analyzer{
	Name:      "atomicfield",
	Doc:       "report struct fields accessed both atomically and with plain loads/stores",
	RunModule: runAtomicField,
}

// fieldUse is one access to a field, attributed to the pass whose file
// contains it.
type fieldUse struct {
	pass *Pass
	pos  token.Pos
}

func runAtomicField(passes []*Pass) error {
	atomicUses := make(map[*types.Var][]fieldUse)
	plainUses := make(map[*types.Var][]fieldUse)
	// Selector nodes consumed by an atomic call's &arg, so the plain
	// scan does not double-count them.
	atomicArgs := make(map[*ast.SelectorExpr]bool)

	for _, pass := range passes {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSyncAtomicCall(pass, call) {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if fv := fieldVar(pass, sel); fv != nil {
						atomicUses[fv] = append(atomicUses[fv], fieldUse{pass, sel.Pos()})
						atomicArgs[sel] = true
					}
				}
				return true
			})
		}
	}
	if len(atomicUses) == 0 {
		return nil
	}
	for _, pass := range passes {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || atomicArgs[sel] {
					return true
				}
				fv := fieldVar(pass, sel)
				if fv == nil {
					return true
				}
				if _, isAtomic := atomicUses[fv]; isAtomic {
					plainUses[fv] = append(plainUses[fv], fieldUse{pass, sel.Pos()})
				}
				return true
			})
		}
	}
	for fv, plains := range plainUses {
		at := atomicUses[fv][0]
		atPos := at.pass.Fset.Position(at.pos)
		for _, use := range plains {
			if use.pass.suppressed(use.pos, "allow-plain") {
				continue
			}
			use.pass.Reportf(use.pos,
				"field %s.%s is updated atomically (e.g. %s:%d) but accessed here without sync/atomic; use the typed atomics or silence with //ihtl:allow-plain <reason>",
				ownerName(fv), fv.Name(), shortPath(atPos.Filename), atPos.Line)
		}
	}
	return nil
}

// isSyncAtomicCall reports whether call invokes a pointer-style
// function of sync/atomic (Add*, Load*, Store*, Swap*,
// CompareAndSwap*).
func isSyncAtomicCall(pass *Pass, call *ast.CallExpr) bool {
	obj := pass.calleeObject(call)
	if obj == nil || objPkgPath(obj) != "sync/atomic" {
		return false
	}
	if _, ok := obj.(*types.Func); !ok {
		return false
	}
	for _, prefix := range []string{"Add", "And", "Or", "Load", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(obj.Name(), prefix) {
			return true
		}
	}
	return false
}

// fieldVar resolves sel to a struct field variable, or nil.
func fieldVar(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	if v, ok := pass.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// ownerName renders the declaring struct's position-stable short name
// for diagnostics (the field's package path plus parent type when
// known).
func ownerName(fv *types.Var) string {
	if fv.Pkg() != nil {
		return shortPath(fv.Pkg().Path())
	}
	return "?"
}

func shortPath(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
