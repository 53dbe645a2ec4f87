package hcd_test

import (
	"context"
	"math/rand"
	"testing"

	"hcd"
	"hcd/internal/workload"
)

// Shard counts must not change solve quality: the hierarchy preconditioner
// built with HierarchyOptions.Shards has to converge in essentially the same
// number of PCG iterations as the single-pass build. The grid is 32³ so that
// its level 0 reaches the per-level shard gate (2^15 vertices).
func TestShardedSolveIterationInvariance(t *testing.T) {
	graphs := map[string]*hcd.Graph{
		"grid3d": hcd.Grid3D(32, 32, 32, hcd.LognormalWeights(1), 3),
	}
	if pl, err := workload.PowerLaw(4000, 3, workload.UniformWeight(0.5, 5), 11); err == nil {
		graphs["powerlaw"] = pl
	} else {
		t.Fatal(err)
	}
	for name, g := range graphs {
		rng := rand.New(rand.NewSource(7))
		b := meanFree(rng, g.N())
		iters := map[int]int{}
		for _, shards := range []int{1, 2, 8} {
			opt := hcd.DefaultHierarchyOptions()
			opt.Shards = shards
			h, err := hcd.NewHierarchyCtx(context.Background(), g, opt)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, M: h})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			res := resp.Results[0]
			if !res.Converged {
				t.Fatalf("%s shards=%d: %s after %d iterations", name, shards, res.Outcome, res.Iterations)
			}
			iters[shards] = res.Iterations
		}
		base := iters[1]
		for _, shards := range []int{2, 8} {
			diff := iters[shards] - base
			if diff < 0 {
				diff = -diff
			}
			if 10*diff > base {
				t.Errorf("%s: shards=%d takes %d PCG iterations vs %d single-pass (>10%% apart)",
					name, shards, iters[shards], base)
			}
		}
	}
}
