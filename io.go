package hcd

import (
	"io"

	"hcd/internal/gio"
)

// ErrCorruptSnapshot is returned (wrapped) by the snapshot readers when a
// file is damaged or foreign: bad magic, checksum mismatch, truncation, or
// payloads failing structural validation. Callers distinguish it from plain
// I/O errors with errors.Is and respond by rebuilding, not retrying.
var ErrCorruptSnapshot = gio.ErrCorruptSnapshot

// ReadEdgeList parses the plain edge-list format: one "u v w" line per edge
// (weight optional, default 1), '#' comments, and an optional "n <count>"
// header fixing the vertex count.
func ReadEdgeList(r io.Reader) (*Graph, error) { return gio.ReadEdgeList(r) }

// WriteEdgeList writes g in the edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return gio.WriteEdgeList(w, g) }

// ReadMatrixMarket parses a MatrixMarket coordinate matrix (real/integer/
// pattern, symmetric or general) as a weighted graph: off-diagonal entries
// become edges of weight |a_ij|, the diagonal is implied.
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return gio.ReadMatrixMarket(r) }

// WriteMatrixMarket writes the Laplacian of g as a symmetric coordinate
// MatrixMarket matrix.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return gio.WriteMatrixMarket(w, g) }

// WriteGraphSnapshot writes g in the versioned, checksummed binary snapshot
// format — the durable form behind hcd-server's -state-dir.
func WriteGraphSnapshot(w io.Writer, g *Graph) error { return gio.WriteGraphSnapshot(w, g) }

// ReadGraphSnapshot reads a graph snapshot. Corruption comes back wrapping
// ErrCorruptSnapshot; underlying I/O errors pass through unwrapped.
func ReadGraphSnapshot(r io.Reader) (*Graph, error) { return gio.ReadGraphSnapshot(r) }
