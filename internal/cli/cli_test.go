package cli

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hcd/internal/obs"
)

func TestBuildGraphSpecs(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"grid2d:5", 25},
		{"grid3d:3", 27},
		{"mesh:4", 16},
		{"oct:3", 27},
		{"tree:40", 40},
		{"regular:20,4", 20},
		{"unit2d:4", 16},
		{"road:16", 256},
		{"femesh:6", 36},
		{"plaw:50,3", 50},
	}
	for _, c := range cases {
		g, err := BuildGraph(c.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n {
			t.Errorf("%s: n=%d, want %d", c.spec, g.N(), c.n)
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	for _, spec := range []string{
		"grid2d", "nope:5", "grid2d:x", "grid2d:0", "regular:5", "regular:5,3",
		"plaw:5", "plaw:5,0", "femesh:1",
		"file:/nonexistent/path.el",
	} {
		if _, err := BuildGraph(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestBuildGraphFromFiles(t *testing.T) {
	dir := t.TempDir()
	el := filepath.Join(dir, "g.el")
	if err := os.WriteFile(el, []byte("n 4\n0 1 2\n1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph("file:"+el, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Errorf("file graph N=%d M=%d", g.N(), g.M())
	}
	mm := filepath.Join(dir, "g.mtx")
	content := "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 -1.5\n3 2 -2\n"
	if err := os.WriteFile(mm, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err = BuildGraph("mm:"+mm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("mm graph N=%d M=%d", g.N(), g.M())
	}
}

func TestMeanFreeRHS(t *testing.T) {
	b := MeanFreeRHS(100, 3)
	s := 0.0
	for _, v := range b {
		s += v
	}
	if s > 1e-10 || s < -1e-10 {
		t.Errorf("mean %v", s)
	}
	b2 := MeanFreeRHS(100, 3)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.Row("alpha", 1.5)
	tab.Row("b", 100)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[2], "alpha") {
		t.Errorf("table malformed:\n%s", out)
	}
	// Columns aligned: header and separator equal width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator misaligned:\n%s", out)
	}
}

// TestStagesSumPerStage: Stages keeps the spans under its prefix, sums each
// stage's durations in order of its first span and keeps the vertices and
// edges args of its last.
func TestStagesSumPerStage(t *testing.T) {
	args := func(v, e int) []obs.Arg { return []obs.Arg{{Key: "vertices", Value: v}, {Key: "edges", Value: e}} }
	spans := []obs.SpanInfo{
		{Name: "decompose/fixed-degree", Duration: 9},
		{Name: "build/cluster", Duration: 1, Args: args(1, 2)},
		{Name: "decomp/evaluate", Duration: 5},
		{Name: "build/evaluate", Duration: 3},
		{Name: "build/cluster", Duration: 2, Args: args(3, 4)},
	}
	want := []Stage{{Name: "cluster", Duration: 3, Vertices: 3, Edges: 4}, {Name: "evaluate", Duration: 3}}
	if got := Stages(spans, "build/"); !slices.Equal(got, want) {
		t.Errorf("Stages = %+v, want %+v", got, want)
	}
	// A tracer EnsureTracer installs records what runs under the context.
	var o Obs
	ctx := o.EnsureTracer(context.Background())
	if o.EnsureTracer(ctx) != ctx {
		t.Error("EnsureTracer replaced an installed tracer")
	}
	_, sp := obs.StartSpan(ctx, "build/x")
	sp.End()
	if got := Stages(o.Tracer.Spans(), "build/"); len(got) != 1 || got[0].Name != "x" {
		t.Errorf("stages of the ensured tracer = %+v", got)
	}
}
