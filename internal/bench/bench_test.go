package bench

import (
	"bytes"
	"strings"
	"testing"
)

func smallEnv(t *testing.T) (*Env, *bytes.Buffer) {
	t.Helper()
	env := NewEnv(4)
	t.Cleanup(env.Close)
	env.Iters = 2
	var buf bytes.Buffer
	env.Out = &buf
	return env, &buf
}

func TestRegistryLoadsAndIsDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry generation is slow")
	}
	names := map[string]bool{}
	for _, d := range Registry() {
		if names[d.Name] {
			t.Fatalf("duplicate dataset name %s", d.Name)
		}
		names[d.Name] = true
	}
	// Load just the two smallest full-registry datasets as a smoke
	// test (lvjrnl is the smallest social, sk the smallest web).
	for _, name := range []string{"lvjrnl", "sk"} {
		d, err := ByName(Registry(), name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Load twice: memoised.
		g2, _ := d.Load()
		if g2 != g {
			t.Fatal("dataset not memoised")
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName(SmallRegistry(), "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunFig7SmallProducesSaneRow(t *testing.T) {
	env, buf := smallEnv(t)
	d := SmallRegistry()[0]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunFig7(env, d.Name, g)
	if err != nil {
		t.Fatal(err)
	}
	if row.Pull <= 0 || row.IHTL <= 0 || row.PushAtomic <= 0 {
		t.Fatalf("non-positive timings: %+v", row)
	}
	if row.Preprocess <= 0 {
		t.Fatal("no preprocessing time recorded")
	}
	RenderFig7(env, []Fig7Row{row})
	out := buf.String()
	for _, want := range []string{"Figure 7", "Table 2", d.Name} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllExperimentsOnSmallData(t *testing.T) {
	env, buf := smallEnv(t)
	// One small social + one small web keep the full sweep fast.
	datasets := []*Dataset{SmallRegistry()[0], SmallRegistry()[2]}
	if err := RunAll(env, datasets); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 7", "Table 2", "Table 3", "Table 4",
		"Figure 8", "Table 5", "Table 6", "Figure 9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	env, _ := smallEnv(t)
	if err := Run(env, "fig42", nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig8SkipsGOrderAboveCap(t *testing.T) {
	env, _ := smallEnv(t)
	d := SmallRegistry()[1]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunFig8(env, d.Name, g, 1 /* cap below any graph */)
	if err != nil {
		t.Fatal(err)
	}
	foundSkip := false
	for _, e := range row.Entries {
		if e.Name == "gorder" && e.Skipped {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Fatal("gorder not skipped despite cap")
	}
}

func TestTable6SweepsFourPoints(t *testing.T) {
	env, _ := smallEnv(t)
	d := SmallRegistry()[2]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunTable6(env, d.Name, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Times) != len(Table6Labels()) {
		t.Fatalf("sweep has %d points, want %d", len(row.Times), len(Table6Labels()))
	}
}

func TestTableRenderAlignment(t *testing.T) {
	var buf bytes.Buffer
	tb := &Table{Title: "T", Header: []string{"a", "bbbb"}}
	tb.Add("xxxxx", 1)
	tb.Add("y", 2.5)
	tb.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), buf.String())
	}
	// Render to nil must not panic.
	tb.Render(nil)
}

func TestRenderCSV(t *testing.T) {
	var buf bytes.Buffer
	tb := &Table{Title: "T", Header: []string{"a", "b"}}
	tb.Add("plain", `quote"and,comma`)
	RenderCSV(tb, &buf)
	out := buf.String()
	want := "# T\na,b\nplain,\"quote\"\"and,comma\"\n"
	if out != want {
		t.Fatalf("CSV output %q, want %q", out, want)
	}
	RenderCSV(tb, nil) // must not panic
}

func TestEnvCSVMode(t *testing.T) {
	env, buf := smallEnv(t)
	env.CSV = true
	d := SmallRegistry()[0]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunTable4(env, d.Name, g)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable4(env, []Table4Row{row})
	if !strings.Contains(buf.String(), "Dataset,CSC (MiB)") {
		t.Fatalf("CSV mode not applied: %q", buf.String())
	}
}
