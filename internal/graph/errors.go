package graph

import (
	"errors"

	"hcd/internal/kernel"
)

// Sentinel errors shared across the solver stack. They are re-exported from
// the root hcd package so callers can errors.Is against one identity instead
// of string-matching messages.
var (
	// ErrBadDimension marks size mismatches: negative vertex counts,
	// out-of-range edge endpoints, or vectors whose length disagrees with
	// an operator's dimension.
	ErrBadDimension = errors.New("dimension mismatch")

	// ErrDisconnected marks operations that require a connected graph
	// (e.g. the normalized-Laplacian eigensolver).
	ErrDisconnected = errors.New("graph not connected")

	// ErrInvalidInput marks caller-supplied arguments that violate an
	// operation's documented preconditions: duplicate or out-of-range
	// vertices in a cluster handed to Closure, a graph too large for
	// ExactConductance's cut enumeration. Internal invariant violations
	// still panic; only caller-reachable misuse returns this sentinel. It is
	// kernel.ErrInvalidInput, the value the leaf kernels' checks wrap.
	ErrInvalidInput = kernel.ErrInvalidInput
)
