// Package gio reads and writes graphs in two interchange formats:
//
//   - a plain edge-list text format ("u v w" per line, '#' comments,
//     0-based vertex ids, an optional "n <count>" header line), and
//   - the MatrixMarket coordinate format (symmetric real/integer/pattern),
//     the lingua franca of sparse-matrix collections, interpreting
//     off-diagonal entries as edge weights |a_ij| and ignoring the
//     diagonal — the standard way Laplacian test problems are shipped.
package gio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hcd/internal/graph"
)

// WriteEdgeList writes g in the edge-list format, one "u v w" line per
// edge, preceded by an "n <count>" header so isolated vertices round-trip.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parser hardening limits. Both formats carry attacker-controllable size
// declarations ("n <count>" headers, MatrixMarket size lines); the limits
// bound what a malformed or hostile file can make the parser allocate before
// any real data is seen.
const (
	// MaxVertices bounds declared and implied vertex counts (~67M).
	MaxVertices = 1 << 26
	// MaxEntries bounds the declared MatrixMarket entry count (~268M).
	MaxEntries = 1 << 28
)

// Format names accepted by Read. "edgelist" is the plain text format,
// "mm" (alias "matrixmarket") the MatrixMarket coordinate format.
const (
	FormatEdgeList     = "edgelist"
	FormatMatrixMarket = "mm"
)

// Read parses a graph from r in the named format — the single wire-format
// dispatch shared by the CLI's file:/mm: specs and the hcd-server graph
// submission endpoint. An empty format defaults to the edge-list format;
// unknown formats return an error wrapping graph.ErrInvalidInput.
func Read(r io.Reader, format string) (*graph.Graph, error) {
	switch format {
	case "", FormatEdgeList:
		return ReadEdgeList(r)
	case FormatMatrixMarket, "matrixmarket":
		return ReadMatrixMarket(r)
	default:
		return nil, fmt.Errorf("gio: unknown graph format %q (want %q or %q): %w",
			format, FormatEdgeList, FormatMatrixMarket, graph.ErrInvalidInput)
	}
}

// badInput builds a line-numbered parse error wrapping graph.ErrInvalidInput,
// so callers can distinguish malformed input (errors.Is) from I/O failures.
func badInput(line int, format string, args ...interface{}) error {
	return fmt.Errorf("gio: line %d: %s: %w", line, fmt.Sprintf(format, args...), graph.ErrInvalidInput)
}

// checkWeight validates a parsed edge weight: it must be finite and
// positive. NaN, ±Inf, zero and negative weights are data corruption for a
// Laplacian (a negative weight even breaks positive semidefiniteness), so
// they are rejected at the parse boundary with the offending line number
// rather than deep inside graph construction.
func checkWeight(line int, w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return badInput(line, "non-finite weight %v", w)
	}
	if w <= 0 {
		return badInput(line, "non-positive weight %v", w)
	}
	return nil
}

// ReadEdgeList parses the edge-list format. Lines are "u v w" (w optional,
// default 1); blank lines and '#' comments are skipped; an optional
// "n <count>" line fixes the vertex count (otherwise 1 + max id).
//
// The reader streams: once the vertex count is known — from an "n <count>"
// header, which our own writer always emits first — every subsequent edge
// feeds a chunked CSR builder directly, so peak memory tracks the graph
// under construction, never a full []Edge materialization of the input.
// Edges seen before a header are buffered and replayed into the builder
// when the count is learned (at the header, or at EOF from 1 + max id).
//
// Malformed input — syntax errors, negative or oversized vertex ids,
// non-finite or non-positive weights, conflicting "n" headers, more than
// MaxEntries edges — returns a line-numbered error wrapping
// graph.ErrInvalidInput. The MaxEntries bound fires mid-stream and its
// error reports how many bytes the reader held at that point.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *graph.Builder     // live once the vertex count is known
	var pending []graph.Edge // edges seen before any "n" header
	n := -1
	maxID := -1
	line := 0
	entries := int64(0)
	buffered := func() int64 {
		if b != nil {
			return b.BufferedBytes()
		}
		return int64(24 * cap(pending))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "n" {
			if len(fields) != 2 {
				return nil, badInput(line, "bad n header")
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, badInput(line, "bad vertex count %q", fields[1])
			}
			if v > MaxVertices {
				return nil, badInput(line, "vertex count %d exceeds the %d limit", v, MaxVertices)
			}
			if b != nil {
				if v != n {
					return nil, badInput(line, "conflicting vertex counts %d and %d", n, v)
				}
				continue
			}
			n = v
			if b, err = graph.NewBuilder(n, graph.MergeSum); err != nil {
				return nil, badInput(line, "%v", err)
			}
			for _, e := range pending {
				if err := b.Add(e.U, e.V, e.W); err != nil {
					return nil, badInput(line, "%v", err)
				}
			}
			pending = nil
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, badInput(line, "want 'u v [w]', got %q", text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, badInput(line, "bad vertex %q", fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, badInput(line, "bad vertex %q", fields[1])
		}
		if u < 0 || v < 0 {
			return nil, badInput(line, "negative vertex id in %q", text)
		}
		if u > MaxVertices || v > MaxVertices {
			return nil, badInput(line, "vertex id exceeds the %d limit in %q", MaxVertices, text)
		}
		if u == v {
			return nil, badInput(line, "self-loop %d-%d", u, v)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, badInput(line, "bad weight %q", fields[2])
			}
			if err := checkWeight(line, w); err != nil {
				return nil, err
			}
		}
		entries++
		if entries > MaxEntries {
			return nil, badInput(line, "entry count exceeds the %d limit (%d bytes buffered)", MaxEntries, buffered())
		}
		if b != nil {
			if err := b.Add(u, v, w); err != nil {
				return nil, badInput(line, "%v", err)
			}
		} else {
			pending = append(pending, graph.Edge{U: u, V: v, W: w})
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var g *graph.Graph
	var err error
	if b != nil {
		if maxID >= n {
			return nil, fmt.Errorf("gio: vertex id %d outside declared count %d: %w", maxID, n, graph.ErrInvalidInput)
		}
		g, err = b.Finish()
	} else {
		// Headerless input: the count was only known at EOF.
		g, err = graph.NewFromEdges(maxID+1, pending)
	}
	if err != nil {
		// Parallel edges that merge out of range, or a total volume that
		// overflows: a parse failure found at the input's last line.
		return nil, fmt.Errorf("gio: line %d: %w", line, err)
	}
	return g, nil
}

// ReadMatrixMarket parses a MatrixMarket coordinate file as a weighted
// graph: the matrix must be square; symmetric files use each stored entry
// once, general files must contain both triangles consistently (entries are
// merged by absolute-value max). Diagonal entries are skipped; entry values
// become |a_ij|; pattern files get unit weights.
// Malformed input returns a line-numbered error wrapping
// graph.ErrInvalidInput; the declared sizes are bounded by MaxVertices and
// MaxEntries, and nothing is allocated proportional to a declared size
// before the corresponding data has actually been read.
func ReadMatrixMarket(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 1
	if !sc.Scan() {
		return nil, fmt.Errorf("gio: empty MatrixMarket stream: %w", graph.ErrInvalidInput)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, badInput(line, "unsupported MatrixMarket header %q", sc.Text())
	}
	pattern := header[3] == "pattern"
	if !pattern && header[3] != "real" && header[3] != "integer" {
		return nil, badInput(line, "unsupported field type %q", header[3])
	}
	symmetric := false
	if len(header) >= 5 {
		switch header[4] {
		case "symmetric", "skew-symmetric":
			symmetric = true
		case "general":
		default:
			return nil, badInput(line, "unsupported symmetry %q", header[4])
		}
	}
	// Skip comments, read the size line.
	var rows, cols, nnz int
	sized := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		if _, err := fmt.Sscanf(text, "%d %d %d", &rows, &cols, &nnz); err != nil {
			return nil, badInput(line, "bad size line %q: %v", text, err)
		}
		sized = true
		break
	}
	if !sized {
		return nil, fmt.Errorf("gio: missing MatrixMarket size line: %w", graph.ErrInvalidInput)
	}
	if rows != cols {
		return nil, badInput(line, "matrix is %dx%d, need square", rows, cols)
	}
	if rows < 0 || nnz < 0 {
		return nil, badInput(line, "negative size %d %d %d", rows, cols, nnz)
	}
	if rows > MaxVertices {
		return nil, badInput(line, "dimension %d exceeds the %d limit", rows, MaxVertices)
	}
	if nnz > MaxEntries {
		return nil, badInput(line, "entry count %d exceeds the %d limit", nnz, MaxEntries)
	}
	// Entries stream straight into a chunked CSR builder under the
	// MergeMax policy (the symmetric mirror of a stored entry must not
	// double the weight). The builder allocates in proportion to the data
	// actually read — the declared sizes remain untrusted hints, so a
	// hostile size line with no data behind it costs nothing.
	b, err := graph.NewBuilder(rows, graph.MergeMax)
	if err != nil {
		return nil, badInput(line, "%v", err)
	}
	read := 0
	for read < nnz && sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		want := 3
		if pattern {
			want = 2
		}
		if len(fields) < want {
			return nil, badInput(line, "short entry line %q", text)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, badInput(line, "bad row index %q", fields[0])
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, badInput(line, "bad col index %q", fields[1])
		}
		if i < 1 || i > rows || j < 1 || j > rows {
			return nil, badInput(line, "entry (%d, %d) outside the declared %dx%d matrix", i, j, rows, rows)
		}
		read++
		if i == j {
			continue // diagonal: Laplacian diagonals are implied
		}
		w := 1.0
		if !pattern {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, badInput(line, "bad value %q", fields[2])
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, badInput(line, "non-finite value %v", w)
			}
			w = math.Abs(w)
			if w == 0 {
				continue // explicit zero: no edge
			}
		}
		u, v := i-1, j-1 // MatrixMarket is 1-based
		if err := b.Add(u, v, w); err != nil {
			return nil, badInput(line, "%v", err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("gio: expected %d entries, found %d: %w", nnz, read, graph.ErrInvalidInput)
	}
	_ = symmetric // both triangles collapse into the same undirected edge
	g, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("gio: line %d: %w", line, err)
	}
	return g, nil
}

// WriteMatrixMarket writes the Laplacian of g as a symmetric real
// coordinate MatrixMarket matrix (lower triangle + diagonal).
func WriteMatrixMarket(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	n := g.N()
	nnz := g.M() + n
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, nnz); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", v+1, v+1, g.Vol(v)); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		hi, lo := e.U, e.V
		if hi < lo {
			hi, lo = lo, hi
		}
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", hi+1, lo+1, -e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}
