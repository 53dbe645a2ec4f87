package graph

import (
	"math/rand"
	"testing"
)

func shardTestGraph(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	es := make([]Edge, 0, m)
	for len(es) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		es = append(es, Edge{U: u, V: v, W: 1 + rng.Float64()})
	}
	return MustFromEdges(n, es)
}

func TestPartitionShardsTiling(t *testing.T) {
	g := shardTestGraph(t, 200, 600, 1)
	for _, k := range []int{1, 2, 3, 7, 8, 199, 200, 500} {
		sh := PartitionShards(g, k)
		want := k
		if want > g.N() {
			want = g.N()
		}
		if len(sh) != want {
			t.Fatalf("k=%d: got %d shards, want %d", k, len(sh), want)
		}
		at := 0
		for i, s := range sh {
			if s.Lo() != at {
				t.Fatalf("k=%d: shard %d starts at %d, want %d", k, i, s.Lo(), at)
			}
			if s.Len() <= 0 {
				t.Fatalf("k=%d: shard %d is empty", k, i)
			}
			at = s.Hi()
		}
		if at != g.N() {
			t.Fatalf("k=%d: shards cover [0,%d), want [0,%d)", k, at, g.N())
		}
	}
	if sh := PartitionShards(MustFromEdges(0, nil), 4); sh != nil {
		t.Errorf("empty graph: got %d shards, want none", len(sh))
	}
}

func TestPartitionShardsBalance(t *testing.T) {
	// A uniform random graph has near-uniform adjacency mass, so an 8-way
	// split should put roughly 1/8 of the half-edges in each shard.
	g := shardTestGraph(t, 4000, 16000, 2)
	sh := PartitionShards(g, 8)
	mass := make([]int, len(sh))
	total := 0
	for i, s := range sh {
		mass[i] = countHalfEdges(g, s)
		total += mass[i]
	}
	for i := range sh {
		if mass[i] < total/16 || mass[i] > total/4 {
			t.Errorf("shard %d holds %d/%d half-edge mass, far from balanced", i, mass[i], total)
		}
	}
}

func TestShardViews(t *testing.T) {
	g := shardTestGraph(t, 100, 400, 3)
	sh := PartitionShards(g, 4)
	total := 0
	for _, s := range sh {
		for v := s.Lo(); v < s.Hi(); v++ {
			if !s.Contains(v) {
				t.Fatalf("shard does not contain its own vertex %d", v)
			}
			if got := s.Global(s.Local(v)); got != v {
				t.Fatalf("Local/Global round-trip: %d -> %d", v, got)
			}
			nbr, w := s.Neighbors(v)
			if len(nbr) != len(w) {
				t.Fatalf("Neighbors(%d) length mismatch", v)
			}
		}
		total += countHalfEdges(g, s)
	}
	if total != 2*g.M() {
		t.Fatalf("edge accounting: %d half-edges over the shards vs m=%d", total, g.M())
	}
}

func countHalfEdges(g *Graph, s Shard) int {
	c := 0
	for v := s.Lo(); v < s.Hi(); v++ {
		nbr, _ := g.Neighbors(v)
		c += len(nbr)
	}
	return c
}
