package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File // non-test files, parsed with comments
	Types *types.Package
	Info  *types.Info

	loader *Loader // the loader that type-checked it
}

// Loader parses and type-checks packages of this module using only the
// standard library: module-internal imports are resolved against the
// module root, everything else (the standard library) through the
// go/importer source importer, so loading works offline and without
// x/tools. One Loader shares a FileSet and a package cache, which
// makes types.Object identities stable across packages — the
// atomicfield pass depends on that to correlate uses of one struct
// field seen from different importing packages.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string

	std   types.ImporterFrom
	pkgs  map[string]*Package       // loaded module packages by import path
	stdPk map[string]*types.Package // loaded stdlib packages
}

// NewLoader creates a loader rooted at modRoot, reading the module
// path from go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analyzers: no module line in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: modRoot,
		pkgs:    make(map[string]*Package),
		stdPk:   make(map[string]*types.Package),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Import implements types.Importer for the type-checker: module paths
// load recursively through this loader, all others through the source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	// Already-loaded packages resolve by identity regardless of path —
	// this is how testdata packages import sibling testdata packages
	// (pre-loaded by the test harness under synthetic import paths).
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.stdPk[path]; ok {
		return p, nil
	}
	p, err := l.std.ImportFrom(path, dir, mode)
	if err == nil {
		l.stdPk[path] = p
	}
	return p, err
}

// loadPath loads the module package with the given import path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
}

// LoadDir parses and type-checks the package in dir under the given
// import path. The path does not have to live under the module root —
// analyzer tests use this to load testdata packages that may in turn
// import real module packages.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyzers: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-checking %s: %w", path, err)
	}
	p := &Package{Fset: l.Fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of dir with comments. Files
// excluded from the host platform's build by //go:build or filename
// constraints (e.g. the !unix mmap fallback) are skipped, matching
// what `go build` would compile — otherwise platform-variant pairs
// would redeclare their shared symbols under the type checker.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load resolves the given patterns to module packages and loads them.
// Supported patterns: "./..." (every package under the module root),
// "./x/y" or "x/y" directories relative to the root, and full import
// paths like "ihtl/internal/core". With no patterns, "./..." is
// assumed.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []*Package
	add := func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		p, err := l.loadPath(path)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walkPackages()
			if err != nil {
				return nil, err
			}
			for _, path := range paths {
				if err := add(path); err != nil {
					return nil, err
				}
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			paths, err := l.walkPackages()
			if err != nil {
				return nil, err
			}
			prefix := l.toImportPath(base)
			for _, path := range paths {
				if path == prefix || strings.HasPrefix(path, prefix+"/") {
					if err := add(path); err != nil {
						return nil, err
					}
				}
			}
		default:
			if err := add(l.toImportPath(pat)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// toImportPath converts a directory-ish pattern to an import path.
func (l *Loader) toImportPath(pat string) string {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "" || pat == "." {
		return l.ModPath
	}
	if pat == l.ModPath || strings.HasPrefix(pat, l.ModPath+"/") {
		return pat
	}
	return l.ModPath + "/" + filepath.ToSlash(pat)
}

// walkPackages returns the import paths of every directory under the
// module root that contains non-test Go files, skipping testdata,
// hidden directories, and results/.
func (l *Loader) walkPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(l.ModRoot, p)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, l.ModPath)
				} else {
					paths = append(paths, l.ModPath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analyzers: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
