package main

// The layout fingerprint (-fingerprint parent change). A benchmark ratio
// can move 4-17 % because a hot function's entry went from 0 to 32 mod
// 64 — Go aligns functions to 32 bytes, a cache line is 64 — with no
// instruction of it changed. Two binaries' fingerprints side by side say
// whether that happened: for every symbol of the functions the gated
// metrics run, its entry address mod 64 in each binary and how far it
// moved. The symbols are read from the ELF symbol tables (debug/elf);
// the set is taken from the module's own annotations:
//
//   - the gate-index kernels and the drivers: every function carrying
//     //ihtl:nobce, //ihtl:noescape or //ihtl:noalloc, with its
//     closures, method values and defer/go wrappers;
//   - the assembly kernels (analyzers.AssemblyTwins, as <name>.abi0);
//   - the benchmark's reference sweep, main.refSweep*, the denominator
//     of every *_vs_ref ratio.

import (
	"debug/elf"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"ihtl/internal/analyzers"
)

// fingerprintDirectives mark the functions whose symbols a fingerprint
// lists.
var fingerprintDirectives = []string{"nobce", "noescape", "noalloc"}

// refSweepPrefix names the benchmark's reference sweep symbols.
const refSweepPrefix = "main.refSweep"

// fingerprintSet is what a fingerprint lists: Go functions by their
// symbol name with type parameters dropped (closures and wrappers follow
// their function), and assembly kernels by exact symbol name.
type fingerprintSet struct {
	funcs map[string]bool
	asm   map[string]bool
}

// has reports whether sym, an ELF function symbol, is in the set.
func (set fingerprintSet) has(sym string) bool {
	if set.asm[sym] || strings.HasPrefix(sym, refSweepPrefix) {
		return true
	}
	base := dropTypeArgs(sym)
	for {
		if set.funcs[base] {
			return true
		}
		// Strip one closure or wrapper suffix: f.func1, f.func1.2,
		// f.deferwrap1, f.gowrap1, f-fm.
		if b, ok := strings.CutSuffix(base, "-fm"); ok {
			base = b
			continue
		}
		i := strings.LastIndexByte(base, '.')
		if i < 0 || strings.ContainsAny(base[i:], "()/") {
			return false
		}
		base = base[:i]
	}
}

// dropTypeArgs removes every bracketed type-argument list from a symbol
// name: pkg.(*T[go.shape.float64]).m is pkg.(*T).m.
func dropTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// moduleFingerprintSet walks the module's non-test Go files under root
// (not testdata, hidden directories or nested modules) for the annotated
// functions, and adds the assembly kernels.
func moduleFingerprintSet(root, modPath string) (fingerprintSet, error) {
	set := fingerprintSet{funcs: map[string]bool{}, asm: map[string]bool{}}
	for kernel := range analyzers.AssemblyTwins {
		set.asm[kernel+".abi0"] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join(modPath, filepath.ToSlash(rel))
		if f.Name.Name == "main" {
			pkg = "main"
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, dir := range fingerprintDirectives {
				if analyzers.FuncHasDirective(fd, dir) {
					set.funcs[pkg+"."+funcSymbol(fd)] = true
					break
				}
			}
		}
		return nil
	})
	return set, err
}

// funcSymbol is fd's symbol name inside its package, type parameters
// dropped: f, T.m or (*T).m.
func funcSymbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	id, ok := typ.(*ast.Ident)
	if !ok {
		return fd.Name.Name
	}
	name := id.Name
	if ptr {
		return "(*" + name + ")." + fd.Name.Name
	}
	return name + "." + fd.Name.Name
}

// funcEntries returns the entry address of every function symbol of the
// ELF binary at path.
func funcEntries(path string) (map[string]uint64, error) {
	f, err := elf.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]uint64, len(syms))
	for _, s := range syms {
		if elf.ST_TYPE(s.Info) == elf.STT_FUNC && s.Value != 0 {
			out[s.Name] = s.Value
		}
	}
	return out, nil
}

// writeFingerprint prints, for every symbol of set in either binary, its
// entry address mod 64 in each ('-' where absent) and the byte shift
// between them — Go symbols by name, then the assembly kernels — and a
// closing count of the entries that moved mod 64.
func writeFingerprint(w io.Writer, set fingerprintSet, parentPath, changePath string) error {
	parent, err := funcEntries(parentPath)
	if err != nil {
		return err
	}
	change, err := funcEntries(changePath)
	if err != nil {
		return err
	}
	var goSyms, asmSyms []string
	seen := map[string]bool{}
	for _, entries := range []map[string]uint64{parent, change} {
		for sym := range entries {
			if seen[sym] || !set.has(sym) {
				continue
			}
			seen[sym] = true
			if set.asm[sym] {
				asmSyms = append(asmSyms, sym)
			} else {
				goSyms = append(goSyms, sym)
			}
		}
	}
	sort.Strings(goSyms)
	sort.Strings(asmSyms)
	syms := append(goSyms, asmSyms...)
	width := len("symbol")
	for _, s := range syms {
		width = max(width, len(s))
	}
	fmt.Fprintf(w, "# ihtlvet -fingerprint %s %s: entry address mod 64 of the gate-index kernels and drivers (//ihtl:nobce, //ihtl:noescape, //ihtl:noalloc) with their closures, the assembly kernels and main.refSweep* ('-': not in that binary)\n", parentPath, changePath)
	fmt.Fprintf(w, "# %-*s %6s %6s  %s\n", width-2, "symbol", "parent", "change", "byte shift")
	moved, both := 0, 0
	for _, s := range syms {
		p, inP := parent[s]
		c, inC := change[s]
		col := func(addr uint64, ok bool) string {
			if !ok {
				return "-"
			}
			return fmt.Sprint(addr % 64)
		}
		shift := ""
		if inP && inC {
			both++
			shift = fmt.Sprintf("%+d", int64(c)-int64(p))
			if p%64 != c%64 {
				moved++
			}
		}
		fmt.Fprintf(w, "%-*s %6s %6s  %6s\n", width, s, col(p, inP), col(c, inC), shift)
	}
	fmt.Fprintf(w, "# %d of the %d symbols in both binaries moved mod 64\n", moved, both)
	return nil
}
