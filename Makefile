# Convenience targets for the hcd reproduction. Everything is stdlib Go; no
# external dependencies are fetched.

GO ?= go
# FUZZTIME is each fuzz target's pass in `make fuzz` (CI runs it at 20s).
FUZZTIME ?= 10s

.PHONY: all build test portable bench bench-e2e bench-replay bench-gate replay-smoke scale-smoke cli-methods fingerprints vet fmt check race race-solver determinism examples fuzz experiments fig6 coverage

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the pre-merge gate: gofmt, vet, the build without the assembly
# kernels, the full suite under the race
# detector (the parallel solver kernels run with GOMAXPROCS > 1 in tests), the
# determinism tests at one and two workers, every example program, a short
# pass of every fuzz target, the scenario-replay smoke, the replay-score
# regression gate, the CLI's resilient solve method, and the benchmark's
# input fingerprints. The theorem,
# fault-recovery and serving crash/recovery checks are tests: `go test` runs
# them (FuzzTheorems' seed corpus among them), under -race too.
check: fmt vet portable race determinism examples fuzz replay-smoke bench-gate cli-methods fingerprints

# portable cross-compiles for an architecture that has none of the assembly
# (all of it lives in internal/kernel, *_amd64.s), so the Go-only build cannot
# rot, and vets the kernel package both ways (asmdecl holds every assembly
# body to its Go declaration); cross-compiling needs no network and no C
# toolchain.
portable:
	$(GO) vet ./internal/kernel && GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/kernel ./internal/graph ./internal/solver ./internal/hierarchy

race:
	$(GO) test -race ./...

# race-solver races just the parallel kernels and primitives (fast).
race-solver:
	$(GO) test -race ./internal/solver/... ./internal/par/... ./internal/graph/...

# determinism runs the bit-identity tests — worker-count invariance of the
# kernels, the solve, the cycle and a served build, the reference oracles (the
# heaviest-edge scan's among them), the layout view's concurrent first build,
# and the golden digests of whole solves and whole builds — once with the test
# process started at one worker and once at two, so a reduction whose rounding
# depends on the worker count cannot come back unnoticed.
determinism:
	$(GO) test -cpu 1,2 -run 'GOMAXPROCS|Invariant|Reference|Determin|Golden' . ./internal/graph ./internal/solver ./internal/hierarchy ./internal/decomp ./internal/serve ./internal/par

# fmt fails when any file is not gofmt-clean, naming the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# fuzz: short fuzzing passes over the graph input parsers with a
# write/reparse round-trip oracle, over the stub-aware exact conductance
# certifier with the brute-force cut enumeration as a differential oracle,
# over the CSR→CSR contraction kernel with the sort-and-merge contraction as
# a differential oracle and the marker kernel it replaced as a bitwise one,
# over the in-place windowed vertex renumbering (RenumberInPlace) with a
# copying renumbering as a bitwise oracle, over the binary snapshot decoders with a
# decode/re-encode round-trip oracle, over the sparse Laplacian factor
# with the dense pinned Cholesky as a differential oracle, over the §3.1
# pointer-forest split with the forest-graph chain it replaced as an exact
# oracle, over the block row kernels and the k = 1 row kernels with their Go
# form (internal/kernel's bodies, whose assembly all lives there) as a bitwise
# oracle, and over the column tiles of the solver's block sweeps and of the
# cycle's sweeps with their any-width loops as a bitwise oracle, and over the
# solve route's hand-written request decoder and response encoder with
# encoding/json as a differential oracle, and over the paper's theorems —
# FuzzTheorems: randomized instances against the bounds themselves (Theorem
# 2.1's tree floor, §3.1's fixed-degree floor, Theorem 3.5's σ, Theorem 4.1's
# eigenvector distance), the cycle's symmetry and definiteness, exact
# power-of-two scaling of the solves as a metamorphic oracle, and weights at
# the edges of float64's range (go fuzzing runs one target at a time).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/gio
	$(GO) test -run '^$$' -fuzz FuzzReadMatrixMarket -fuzztime=$(FUZZTIME) ./internal/gio
	$(GO) test -run '^$$' -fuzz FuzzExactConductance -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzContract -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzRenumberInPlace -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime=$(FUZZTIME) ./internal/gio
	$(GO) test -run '^$$' -fuzz FuzzLapFactor -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzSplitPointers -fuzztime=$(FUZZTIME) ./internal/decomp
	$(GO) test -run '^$$' -fuzz FuzzLapBlockTile -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzLapRowGroups -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzBlockSweeps -fuzztime=$(FUZZTIME) ./internal/solver
	$(GO) test -run '^$$' -fuzz FuzzApplySweeps -fuzztime=$(FUZZTIME) ./internal/hierarchy
	$(GO) test -run '^$$' -fuzz FuzzSolveWire -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzTheorems -fuzztime=$(FUZZTIME) .

# bench-e2e: the repository's benchmark as BENCHMARK.json declares it — its
# own unit tests, then the four workloads end to end (bench/README.md).
bench-e2e:
	$(GO) test ./bench
	$(GO) run ./bench

# bench-replay: replay the committed `steady` scenario through the serving
# stack in-process and write BENCH_replay.json — the report, stamped with the
# git commit and host, carrying the deterministic fitness score. The score is
# bit-identical across runs and GOMAXPROCS settings (PCG-only mix, exact
# iteration-count quantiles), so it gates with no noise margin.
bench-replay:
	$(GO) run ./cmd/hcd-replay -scenario steady -out BENCH_replay.json -gate

# replay-smoke: the seconds-scale replay gate — generate and replay the
# `smoke` scenario trace against the in-process serve stack and fail on any
# deterministic SLO miss.
replay-smoke:
	$(GO) run ./cmd/hcd-replay -scenario smoke -gate

# bench-gate: the perf-regression gate — rerun the steady replay and fail
# when its deterministic score falls below steady's min_score, the committed
# BENCH_replay.json score less 5 (internal/replay/scenario.go); wall-clock
# metrics never gate.
bench-gate:
	$(GO) run ./cmd/hcd-replay -scenario steady -gate

# scale-smoke: the CI-sized scaling gate — a ≈200k-vertex lognormal 3D grid
# (59³) built and solved end to end; fails unless it converges.
scale-smoke:
	$(GO) run ./cmd/hcd-solve -graph grid3d:59 | grep -q 'outcome: converged'

# cli-methods: the hcd-solve path that runs something other than plain PCG —
# the resilient ladder — to convergence, on one right-hand side and on a
# block of three; then plain hierarchy PCG on a triangle whose weights differ
# by 10¹⁶, read as an edge list from stdin, which builds and converges only
# because the coarse factor's pivots cannot cancel.
cli-methods:
	$(GO) run ./cmd/hcd-solve -graph grid2d:48 -resilient | grep -q 'outcome: converged'
	$(GO) run ./cmd/hcd-solve -graph grid2d:48 -resilient -rhs 3 | grep -q 'converged: 3/3'
	printf '0 1 1\n0 2 1\n1 2 1e16\n' | $(GO) run ./cmd/hcd-solve -graph file:/dev/stdin | grep -q 'outcome: converged'

# fingerprints: the benchmark's inputs (graphs, right-hand sides, the
# request schedule) hash to what bench/fingerprints.json records, so a change
# to a generator shows here rather than as a benchmark that refuses to run.
fingerprints:
	$(GO) run ./bench -fingerprint | diff - bench/fingerprints.json

experiments:
	$(GO) run ./cmd/hcd-experiments

# examples runs every program under examples/ and fails unless each exits 0.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# fig6 regenerates the committed Figure 6 record; CI fails when the file and
# the program disagree.
fig6:
	$(GO) run ./cmd/hcd-fig6 > fig6_output.txt

coverage:
	$(GO) test -cover ./...
