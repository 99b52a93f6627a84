// Command ihtlvet runs the repo's static-analysis suite (see
// internal/analyzers): noalloc, skipzero, atomicfield, parcapture,
// ctxleak, determinism, faultsite and nopanic — plus two
// compiler-assisted gates, -bce and -escape (see gates.go), and a layout
// fingerprint of two built binaries (see fingerprint.go).
//
// Usage:
//
//	ihtlvet [-json] [-analyzers=noalloc,skipzero,...] [-bce] [-escape] [packages]
//	ihtlvet -fingerprint parent-binary change-binary
//
// Package patterns follow go vet conventions for this module: "./...",
// "internal/core/...", directory paths, or full import paths. With no
// patterns, the whole module is analyzed.
//
// Exit codes mirror go vet: 0 when the tree is clean, 1 when any
// diagnostic is reported, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ihtl/internal/analyzers"
)

// jsonDiagnostic is the stable machine-readable diagnostic shape
// emitted by -json: a flat array, one element per finding, sorted by
// file/line/column.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ihtlvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	bce := fs.Bool("bce", false, "also run the bounds-check gate: compile with -d=ssa/check_bce and fail on checks inside //ihtl:nobce functions")
	escape := fs.Bool("escape", false, "also run the escape gate: compile with -m and fail on heap escapes inside //ihtl:noescape functions")
	fingerprint := fs.Bool("fingerprint", false, "print the layout fingerprint of two binaries given as arguments: entry address mod 64 of the annotated kernels and drivers, the assembly kernels and main.refSweep*")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ihtlvet [-json] [-analyzers=a,b] [-bce] [-escape] [packages]\n       ihtlvet -fingerprint parent-binary change-binary\n\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nGates:\n")
		fmt.Fprintf(stderr, "  %-12s %s\n", "bce", "no bounds checks survive in //ihtl:nobce functions (compiler-assisted)")
		fmt.Fprintf(stderr, "  %-12s %s\n", "escape", "no heap escapes in //ihtl:noescape functions (compiler-assisted)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite := analyzers.All()
	if *names != "" {
		var err error
		suite, err = analyzers.ByName(strings.Split(*names, ","))
		if err != nil {
			fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
			return 2
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
		return 2
	}
	root, err := analyzers.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
		return 2
	}
	loader, err := analyzers.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
		return 2
	}
	if *fingerprint {
		if fs.NArg() != 2 {
			fmt.Fprintf(stderr, "ihtlvet: -fingerprint takes two binaries, parent and change; got %d arguments\n", fs.NArg())
			return 2
		}
		set, err := moduleFingerprintSet(root, loader.ModPath)
		if err == nil {
			err = writeFingerprint(stdout, set, fs.Arg(0), fs.Arg(1))
		}
		if err != nil {
			fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
			return 2
		}
		return 0
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
		return 2
	}
	diags, err := analyzers.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
		return 2
	}

	var gates []*gateSpec
	if *bce {
		gates = append(gates, bceGate)
	}
	if *escape {
		gates = append(gates, escapeGate)
	}
	if len(gates) > 0 {
		gateDiags, err := runGates(root, fs.Args(), gates)
		if err != nil {
			fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
			return 2
		}
		diags = append(diags, gateDiags...)
		analyzers.SortDiagnostics(diags)
	}

	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     relTo(root, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "ihtlvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stderr, "%s:%d:%d: %s (%s)\n",
				relTo(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relTo shortens path to be relative to root when possible, keeping
// diagnostics readable and stable across checkouts.
func relTo(root, path string) string {
	if rest, ok := strings.CutPrefix(path, root+string(os.PathSeparator)); ok {
		return rest
	}
	return path
}
