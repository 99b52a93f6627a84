package main

import (
	"bytes"
	"debug/elf"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ihtl/internal/analyzers"
)

// TestFingerprintSetMembership pins which symbol names follow an
// annotated function: its closures, method values and wrappers, its
// generic instantiations, the assembly kernels and the reference sweep —
// and nothing that merely shares a prefix.
func TestFingerprintSetMembership(t *testing.T) {
	set := fingerprintSet{
		funcs: map[string]bool{"p/q.f": true, "p/q.(*T).m": true, "p/q.(*G).w": true},
		asm:   map[string]bool{"p/q.k.abi0": true},
	}
	for sym, want := range map[string]bool{
		"p/q.f":                              true,
		"p/q.f.func1":                        true,
		"p/q.f.func1.2":                      true,
		"p/q.f.deferwrap1":                   true,
		"p/q.(*T).m":                         true,
		"p/q.(*T).m-fm":                      true,
		"p/q.(*T).m.func3":                   true,
		"p/q.(*G[go.shape.float64]).w":       true,
		"p/q.(*G[go.shape.[]int]).w.func1":   true,
		"p/q.k.abi0":                         true,
		"main.refSweepRows":                  true,
		"main.refSweep.func1":                true,
		"p/q.fg":                             false,
		"p/q.g":                              false,
		"p/q.(*T).n":                         false,
		"p/q/r.f":                            false,
		"p/q.k":                              false,
		"type:.eq.p/q.f":                     false,
		"main.ref":                           false,
		"p/q.(*G[go.shape.float64]).other.1": false,
	} {
		if got := set.has(sym); got != want {
			t.Errorf("has(%q) = %v, want %v", sym, got, want)
		}
	}
}

// TestModuleFingerprintSet reads the real module: an annotated kernel, a
// driver method, a generic method and an assembly kernel are in the set.
func TestModuleFingerprintSet(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analyzers.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	set, err := moduleFingerprintSet(root, "ihtl")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{
		"ihtl/internal/core.pullEdgePairs", "ihtl/internal/core.pullRowsEdgeMajor",
		"ihtl/internal/core.(*Engine).fusedWorker", "ihtl/internal/core.(*GenericEngine).fusedWorker",
		"ihtl/internal/core.(*stepShell).runEpilogue",
	} {
		if !set.funcs[fn] {
			t.Errorf("%s is not in the module's fingerprint set", fn)
		}
	}
	for kernel := range analyzers.AssemblyTwins {
		if !set.asm[kernel+".abi0"] {
			t.Errorf("assembly kernel %s is not in the fingerprint set", kernel)
		}
	}
}

// TestFingerprintTinyBinary builds testdata/fpdemo twice — as is, and
// with -tags pad, which links a function ahead of the rest — and checks
// every printed column against the binaries' own symbol tables.
func TestFingerprintTinyBinary(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the fingerprint reads ELF binaries")
	}
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "parent.bin"), filepath.Join(dir, "change.bin")
	for _, b := range []struct {
		out  string
		tags string
	}{{parent, ""}, {change, "pad"}} {
		cmd := exec.Command("go", "build", "-tags="+b.tags, "-o", b.out, "./testdata/fpdemo")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.out, err, out)
		}
	}
	set := fingerprintSet{funcs: map[string]bool{"main.kernel": true, "main.padding": true}, asm: map[string]bool{}}
	var buf bytes.Buffer
	if err := writeFingerprint(&buf, set, parent, change); err != nil {
		t.Fatal(err)
	}
	entries := func(path string) map[string]uint64 {
		f, err := elf.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		syms, err := f.Symbols()
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]uint64{}
		for _, s := range syms {
			m[s.Name] = s.Value
		}
		return m
	}
	p, c := entries(parent), entries(change)
	rows := map[string][]string{}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			rows[f[0]] = f[1:]
		}
	}
	for _, sym := range []string{"main.kernel", "main.refSweepRows"} {
		want := []string{fmt.Sprint(p[sym] % 64), fmt.Sprint(c[sym] % 64), fmt.Sprintf("%+d", int64(c[sym])-int64(p[sym]))}
		if got := rows[sym]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: row %v, want %v", sym, got, want)
		}
		if c[sym] <= p[sym] {
			t.Errorf("%s did not move in the padded build: %#x → %#x", sym, p[sym], c[sym])
		}
	}
	if got, want := rows["main.padding"], []string{"-", fmt.Sprint(c["main.padding"] % 64)}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("main.padding: row %v, want %v (only in the padded build)", got, want)
	}
	if len(rows) != 3 {
		t.Errorf("%d rows, want main.kernel, main.padding and main.refSweepRows:\n%s", len(rows), buf.String())
	}
	moved := 0
	for _, sym := range []string{"main.kernel", "main.refSweepRows"} {
		if p[sym]%64 != c[sym]%64 {
			moved++
		}
	}
	if want := fmt.Sprintf("# %d of the 2 symbols in both binaries moved mod 64", moved); lines[len(lines)-1] != want {
		t.Errorf("last line %q, want %q", lines[len(lines)-1], want)
	}
}

// TestFingerprintArgs: -fingerprint takes exactly two binaries.
func TestFingerprintArgs(t *testing.T) {
	if code, _, stderr := execVet(t, "-fingerprint", "one.bin"); code != 2 || !strings.Contains(stderr, "two binaries") {
		t.Errorf("exit %d, stderr %q; want 2 and the usage error", code, stderr)
	}
}
