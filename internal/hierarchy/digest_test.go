package hierarchy

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

// buildDigest folds every bit a build stores into one FNV-64a: each level's
// graph (offsets, neighbour ids, weights, volumes) and inverse diagonal, its
// restriction arrays assign, order and start, its natural assignment and
// cluster count, the coarse graph, and the cycle's LevelScales and
// CycleEntries. Two builds with the same digest apply the same operator
// through the same layout.
func buildDigest(h *Hierarchy) uint64 {
	d := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		d.Write(buf[:])
	}
	ints := func(xs []int) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(x))
		}
	}
	int32s := func(xs []int32) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(x))
		}
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	graphBits := func(g *graph.Graph) {
		off, adj, w := g.CompactCSR()
		ints(off)
		int32s(adj)
		floats(w)
		for v := 0; v < g.N(); v++ {
			word(math.Float64bits(g.Vol(v)))
		}
	}
	for _, l := range h.levels {
		graphBits(l.g)
		floats(l.dInv)
		int32s(l.assign)
		int32s(l.order)
		int32s(l.start)
		ints(l.natAssign)
		word(uint64(l.count))
	}
	graphBits(h.coarseG)
	for _, s := range h.LevelScales() {
		word(math.Float64bits(s.Gamma))
		word(math.Float64bits(s.Alpha))
		word(uint64(s.Visits))
	}
	word(uint64(h.CycleEntries()))
	return d.Sum64()
}

// buildDigestGolden was generated at the commit before the two-stream
// contraction kernel and has to survive any change that claims to leave the
// build alone. After a change that is meant to move it, copy the new lines
// from the failure output.
var buildDigestGolden = map[string]uint64{
	"grid3d:32": 0xd2a8e78012e095a5,
	"femesh:64": 0xee168c70d4a68428,
	"oct:24":    0x50af1fe0442eb0ce,
}

// TestBuildDigestGolden is the whole-build bit-identity check: default builds
// of the lognormal 32³ grid, the 64² FE mesh and the 24³ OCT volume, hashed by
// buildDigest and compared against constants from an earlier commit.
func TestBuildDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are amd64's: other ports may fuse a + b·c")
	}
	for _, tc := range []namedGraph{
		{"grid3d:32", workload.Grid3D(32, 32, 32, workload.Lognormal(1), 1)},
		{"femesh:64", femesh64(t)},
		{"oct:24", workload.OCT3D(24, 24, 24, workload.DefaultOCTOptions())},
	} {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := buildDigest(h); got != buildDigestGolden[tc.name] {
			t.Errorf("build bits moved; got\n\t%q: %#x,", tc.name, got)
		}
	}
}
