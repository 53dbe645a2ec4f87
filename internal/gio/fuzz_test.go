package gio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"hcd/internal/graph"
)

// Hardening tests: every malformed input must come back as a line-numbered
// error wrapping graph.ErrInvalidInput, never a panic or a huge allocation.

func TestReadEdgeListRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"nan weight", "0 1 NaN\n", "line 1"},
		{"inf weight", "0 1 +Inf\n", "line 1"},
		{"negative weight", "0 1 -2\n", "line 1"},
		{"zero weight", "0 1 0\n", "line 1"},
		{"negative id", "-1 1\n", "line 1"},
		{"self loop", "3 3\n", "line 1"},
		{"short line", "7\n", "line 1"},
		{"long line", "0 1 2 3\n", "line 1"},
		{"bad header", "n\n", "line 1"},
		{"huge header", "n 99999999999\n", "line 1"},
		{"bad vertex", "a b\n", "line 1"},
		{"late error has late line", "# comment\n0 1 1\n0 2 bogus\n", "line 3"},
		{"nan weight after a good line", "0 1 1.0\n0 2 NaN\n", "line 2"},
		{"id outside declared n", "n 2\n0 5\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(c.in))
			if !errors.Is(err, graph.ErrInvalidInput) {
				t.Fatalf("err = %v, want ErrInvalidInput", err)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("err %q does not carry %q", err, c.want)
			}
		})
	}
}

func TestReadMatrixMarketRejectsMalformed(t *testing.T) {
	const hdr = "%%MatrixMarket matrix coordinate real symmetric\n"
	cases := []struct {
		name, in, want string
	}{
		{"nan value", hdr + "2 2 1\n2 1 NaN\n", "line 3"},
		{"inf value", hdr + "2 2 1\n2 1 Inf\n", "line 3"},
		{"out of range entry", hdr + "2 2 1\n5 1 1.0\n", "line 3"},
		{"zero index entry", hdr + "2 2 1\n0 1 1.0\n", "line 3"},
		{"nonsquare", hdr + "2 3 1\n", "need square"},
		{"negative nnz", hdr + "2 2 -1\n", "negative size"},
		{"huge dimension", hdr + "999999999 999999999 1\n", "limit"},
		{"huge nnz", hdr + "2 2 99999999999\n", "limit"},
		{"truncated entries", hdr + "2 2 2\n2 1 1.0\n", "found 1"},
		{"bad header", "%%MatrixMarket matrix array real general\n", "header"},
		{"bad field type", "%%MatrixMarket matrix coordinate complex general\n", "field type"},
		{"empty", "", "empty"},
		{"no size line", hdr + "% only comments\n", "size line"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadMatrixMarket(strings.NewReader(c.in))
			if !errors.Is(err, graph.ErrInvalidInput) {
				t.Fatalf("err = %v, want ErrInvalidInput", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err %q does not carry %q", err, c.want)
			}
		})
	}
}

// sameGraph compares two graphs edge-by-edge with a tolerance for the
// text-format round trip.
func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		na, wa := a.Neighbors(v)
		nb, wb := b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
			if d := math.Abs(wa[i] - wb[i]); d > 1e-12*math.Abs(wa[i]) {
				return false
			}
		}
	}
	return true
}

// FuzzReadEdgeList asserts the parser never panics, and that accepted inputs
// survive a write/reparse round trip (the serializer is the oracle).
func FuzzReadEdgeList(f *testing.F) {
	f.Add("n 4\n0 1 1.5\n1 2 2\n2 3 0.25\n")
	f.Add("0 1\n1 2\n# comment\n\n2 3 7\n")
	f.Add("n 0\n")
	f.Add("0 1 NaN\n")
	f.Add("0 1 -Inf\n")
	f.Add("-1 5\n")
	f.Add("n 99999999999\n")
	f.Add("1 1\n")
	f.Add("0 1 1e308\n0 1 2\n")
	f.Add("x y z\n")
	// Out of the arithmetic range: a merged weight of +Inf, an infinite
	// volume from finite weights, a subnormal weight.
	f.Add("0 1 1e308\n0 1 1e308\n")
	f.Add("0 1 1e308\n0 2 1e308\n1 2 1\n")
	f.Add("0 1 1e-320\n1 2 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return // bound fuzz-case cost, not parser capability
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics and hangs are the bug
		}
		if vol := g.TotalVol(); math.IsInf(vol, 0) {
			t.Fatalf("accepted a graph of total volume %v\noriginal input %q", vol, in)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("reparse of serialized graph failed: %v\noriginal input %q", err, in)
		}
		if !sameGraph(g, g2) {
			t.Fatalf("round trip changed the graph (n=%d m=%d -> n=%d m=%d)", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// FuzzReadMatrixMarket asserts the parser never panics, and that accepted
// inputs survive a WriteMatrixMarket/reparse round trip.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1.0\n3 2 2.0\n3 1 0.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 3\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 NaN\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% comment\n\n2 2 1\n9 9 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 99999999999\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n999999999 999999999 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 4.0\n")
	f.Add("garbage\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		g, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			t.Fatalf("write accepted graph: %v", err)
		}
		g2, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("reparse of serialized graph failed: %v\noriginal input %q", err, in)
		}
		if !sameGraph(g, g2) {
			t.Fatalf("round trip changed the graph (n=%d m=%d -> n=%d m=%d)", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}
