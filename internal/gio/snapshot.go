package gio

// Binary snapshot codec for graphs and built hierarchies — the persistence
// format behind hcd-server's -state-dir. Layout (all little-endian):
//
//	header   : magic "HCDSNAP1" (8 bytes), version u32, kind u32
//	sections : { tag u32, reserved u32, payloadLen u64,
//	             payload (padded to 8 bytes), crc64-ECMA u64 }
//
// The CRC covers the section header and the unpadded payload, and is
// computed per section rather than as a whole-file trailer so corruption is
// attributable: a hierarchy snapshot whose graph section verifies but whose
// level sections do not yields the graph and an error, letting the serving
// layer rebuild the hierarchy instead of discarding everything. Fixed-width
// fields and 8-byte section alignment keep the layout mmap-friendly.
//
// A graph snapshot (kind 1) holds one graph section. A hierarchy snapshot
// (kind 2) holds a graph section, a meta section (smoothing sweeps — 1 for
// the smoothed cycle, 0 for the Steiner recursion — and level count), and one level section per clustering level; the quotient graphs
// and coarse factorization are deterministic functions of these and are
// recomputed on read (hierarchy.Rebuild), never stored.
//
// Readers never trust a length field: payloads are size-bounded by the same
// MaxVertices/MaxEntries limits as the text parsers and read in chunks, so a
// hostile header cannot make the decoder allocate more than the bytes
// actually present.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
)

// ErrCorruptSnapshot is the sentinel wrapped by every decode failure that
// indicates a damaged or foreign file — bad magic, checksum mismatch,
// truncation, or payloads that fail structural validation. I/O errors from
// the underlying reader are returned as-is, without the sentinel.
var ErrCorruptSnapshot = errors.New("gio: corrupt snapshot")

// Snapshot kinds (header field).
const (
	snapKindGraph     = 1
	snapKindHierarchy = 2
)

// snapVersion is the current format version. Readers reject other versions
// as corrupt; there is no cross-version migration — a snapshot is a cache
// of recomputable state, so "rebuild" is the upgrade path.
const snapVersion = 1

// Section tags.
const (
	tagGraph = 0x48505247 // "GRPH"
	tagMeta  = 0x4154454d // "META"
	tagLevel = 0x4c56454c // "LEVL"
)

// maxSnapshotLevels bounds the declared level count of a hierarchy snapshot.
// Real hierarchies are capped at 40 levels; 64 leaves headroom
// while keeping a hostile header from driving a long decode loop.
const maxSnapshotLevels = 64

var snapMagic = [8]byte{'H', 'C', 'D', 'S', 'N', 'A', 'P', '1'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// WriteGraphSnapshot writes g as a kind-1 snapshot.
func WriteGraphSnapshot(w io.Writer, g *graph.Graph) error {
	if faultinject.Enabled() {
		if err := faultinject.Err(faultinject.SnapshotWrite); err != nil {
			return err
		}
	}
	sw := &snapWriter{w: w}
	sw.header(snapKindGraph)
	sw.section(tagGraph, encodeGraph(g))
	return sw.err
}

// ReadGraphSnapshot reads a kind-1 snapshot back into a graph.
func ReadGraphSnapshot(r io.Reader) (*graph.Graph, error) {
	if faultinject.Enabled() {
		if err := faultinject.Err(faultinject.SnapshotRead); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
		}
	}
	if err := readHeader(r, snapKindGraph); err != nil {
		return nil, err
	}
	payload, err := readSection(r, tagGraph)
	if err != nil {
		return nil, err
	}
	return decodeGraph(payload)
}

// WriteHierarchySnapshot writes g and its built hierarchy h as a kind-2
// snapshot. h must have been built on g (or rebuilt from an equivalent
// dump); the codec stores only the fine graph and per-level assignments.
func WriteHierarchySnapshot(w io.Writer, g *graph.Graph, h *hierarchy.Hierarchy) error {
	if faultinject.Enabled() {
		if err := faultinject.Err(faultinject.SnapshotWrite); err != nil {
			return err
		}
	}
	levels, smooth := h.DumpLevels()
	if len(levels) > maxSnapshotLevels {
		return fmt.Errorf("gio: hierarchy has %d levels, snapshot format caps at %d", len(levels), maxSnapshotLevels)
	}
	sw := &snapWriter{w: w}
	sw.header(snapKindHierarchy)
	sw.section(tagGraph, encodeGraph(g))
	meta := make([]byte, 16)
	binary.LittleEndian.PutUint64(meta[0:], uint64(smooth))
	binary.LittleEndian.PutUint64(meta[8:], uint64(len(levels)))
	sw.section(tagMeta, meta)
	for _, la := range levels {
		sw.section(tagLevel, encodeLevel(la))
	}
	return sw.err
}

// ReadHierarchySnapshot reads a kind-2 snapshot, returning the fine graph
// and the hierarchy rebuilt from the persisted level assignments.
//
// Partial recovery: if the graph section verifies but the hierarchy portion
// (meta or level sections) is corrupt, the graph is returned alongside the
// error, so callers can rebuild the hierarchy from scratch instead of losing
// the graph too. A nil graph with an error means total corruption.
func ReadHierarchySnapshot(ctx context.Context, r io.Reader) (*graph.Graph, *hierarchy.Hierarchy, error) {
	if faultinject.Enabled() {
		if err := faultinject.Err(faultinject.SnapshotRead); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
		}
	}
	if err := readHeader(r, snapKindHierarchy); err != nil {
		return nil, nil, err
	}
	payload, err := readSection(r, tagGraph)
	if err != nil {
		return nil, nil, err
	}
	g, err := decodeGraph(payload)
	if err != nil {
		return nil, nil, err
	}
	// From here on the graph is good: failures return it with the error.
	meta, err := readSection(r, tagMeta)
	if err != nil {
		return g, nil, err
	}
	if len(meta) != 16 {
		return g, nil, fmt.Errorf("%w: meta section is %d bytes, want 16", ErrCorruptSnapshot, len(meta))
	}
	smooth := binary.LittleEndian.Uint64(meta[0:])
	nlevels := binary.LittleEndian.Uint64(meta[8:])
	if smooth > 1 || nlevels > maxSnapshotLevels {
		return g, nil, fmt.Errorf("%w: implausible meta (smooth %d, levels %d)", ErrCorruptSnapshot, smooth, nlevels)
	}
	levels := make([]hierarchy.LevelAssign, 0, nlevels)
	for i := uint64(0); i < nlevels; i++ {
		payload, err := readSection(r, tagLevel)
		if err != nil {
			return g, nil, err
		}
		la, err := decodeLevel(payload)
		if err != nil {
			return g, nil, err
		}
		levels = append(levels, la)
	}
	h, err := hierarchy.Rebuild(ctx, g, levels, int(smooth))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return g, nil, err
		}
		return g, nil, fmt.Errorf("%w: rebuild rejected levels: %w", ErrCorruptSnapshot, err)
	}
	return g, h, nil
}

// --- encoding ---

type snapWriter struct {
	w   io.Writer
	err error
}

func (sw *snapWriter) write(b []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(b)
}

func (sw *snapWriter) header(kind uint32) {
	hdr := make([]byte, 16)
	copy(hdr, snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], snapVersion)
	binary.LittleEndian.PutUint32(hdr[12:], kind)
	sw.write(hdr)
}

var zeroPad [8]byte

func (sw *snapWriter) section(tag uint32, payload []byte) {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], tag)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	crc := crc64.Update(crc64.Update(0, crcTable, hdr), crcTable, payload)
	sw.write(hdr)
	sw.write(payload)
	if pad := (8 - len(payload)%8) % 8; pad > 0 {
		sw.write(zeroPad[:pad])
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], crc)
	sw.write(tail[:])
}

// encodeGraph lays out: n u64, half u64 (=len(adj)), off (n+1)×u64,
// adj half×u32, w half×f64.
func encodeGraph(g *graph.Graph) []byte {
	off, adj, w := g.CompactCSR()
	n, half := len(off)-1, len(adj)
	buf := make([]byte, 16+8*(n+1)+4*half+8*half)
	binary.LittleEndian.PutUint64(buf[0:], uint64(n))
	binary.LittleEndian.PutUint64(buf[8:], uint64(half))
	p := 16
	for _, o := range off {
		binary.LittleEndian.PutUint64(buf[p:], uint64(o))
		p += 8
	}
	for _, u := range adj {
		binary.LittleEndian.PutUint32(buf[p:], uint32(u))
		p += 4
	}
	for _, x := range w {
		binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(x))
		p += 8
	}
	return buf
}

func decodeGraph(payload []byte) (*graph.Graph, error) {
	if len(payload) < 16 {
		return nil, fmt.Errorf("%w: graph section is %d bytes, want at least 16", ErrCorruptSnapshot, len(payload))
	}
	n := binary.LittleEndian.Uint64(payload[0:])
	half := binary.LittleEndian.Uint64(payload[8:])
	if n > MaxVertices || half > 2*MaxEntries {
		return nil, fmt.Errorf("%w: graph section declares %d vertices, %d adjacency entries (limits %d, %d)",
			ErrCorruptSnapshot, n, half, MaxVertices, 2*MaxEntries)
	}
	want := 16 + 8*(int(n)+1) + 4*int(half) + 8*int(half)
	if len(payload) != want {
		return nil, fmt.Errorf("%w: graph section is %d bytes, header implies %d", ErrCorruptSnapshot, len(payload), want)
	}
	p := 16
	off := make([]int, n+1)
	for i := range off {
		v := binary.LittleEndian.Uint64(payload[p:])
		if v > half {
			return nil, fmt.Errorf("%w: graph offset %d exceeds adjacency length %d", ErrCorruptSnapshot, v, half)
		}
		off[i] = int(v)
		p += 8
	}
	// Compared as unsigned, before narrowing: an id at or above 2³¹ must not
	// reach the int32 adjacency as a negative number.
	adj := make([]int32, half)
	for i := range adj {
		u := binary.LittleEndian.Uint32(payload[p:])
		if uint64(u) >= n {
			return nil, fmt.Errorf("%w: graph neighbor id %d out of range [0,%d)", ErrCorruptSnapshot, u, n)
		}
		adj[i] = int32(u)
		p += 4
	}
	w := make([]float64, half)
	for i := range w {
		w[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[p:]))
		p += 8
	}
	g, err := graph.NewFromCSR(off, adj, w)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	return g, nil
}

// encodeLevel lays out: count u64, n u64, assign n×u32.
func encodeLevel(la hierarchy.LevelAssign) []byte {
	buf := make([]byte, 16+4*len(la.Assign))
	binary.LittleEndian.PutUint64(buf[0:], uint64(la.Count))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(la.Assign)))
	p := 16
	for _, c := range la.Assign {
		binary.LittleEndian.PutUint32(buf[p:], uint32(c))
		p += 4
	}
	return buf
}

func decodeLevel(payload []byte) (hierarchy.LevelAssign, error) {
	if len(payload) < 16 {
		return hierarchy.LevelAssign{}, fmt.Errorf("%w: level section is %d bytes, want at least 16", ErrCorruptSnapshot, len(payload))
	}
	count := binary.LittleEndian.Uint64(payload[0:])
	n := binary.LittleEndian.Uint64(payload[8:])
	if n > MaxVertices || count > n {
		return hierarchy.LevelAssign{}, fmt.Errorf("%w: level section declares %d clusters on %d vertices", ErrCorruptSnapshot, count, n)
	}
	if want := 16 + 4*int(n); len(payload) != want {
		return hierarchy.LevelAssign{}, fmt.Errorf("%w: level section is %d bytes, header implies %d", ErrCorruptSnapshot, len(payload), want)
	}
	assign := make([]int, n)
	p := 16
	for i := range assign {
		assign[i] = int(binary.LittleEndian.Uint32(payload[p:]))
		p += 4
	}
	// Deeper validation (assignment ranges against the actual level graphs)
	// belongs to hierarchy.Rebuild, which knows the contracted sizes.
	return hierarchy.LevelAssign{Assign: assign, Count: int(count)}, nil
}

// --- decoding primitives ---

func readHeader(r io.Reader, wantKind uint32) error {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return corruptIO("header", err)
	}
	if !bytes.Equal(hdr[:8], snapMagic[:]) {
		return fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != snapVersion {
		return fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorruptSnapshot, v, snapVersion)
	}
	if k := binary.LittleEndian.Uint32(hdr[12:]); k != wantKind {
		return fmt.Errorf("%w: snapshot kind %d, want %d", ErrCorruptSnapshot, k, wantKind)
	}
	return nil
}

// maxSectionBytes bounds a declared section length before any allocation:
// the largest legitimate section is a maximal graph payload (offsets +
// adjacency + weights at the MaxVertices/MaxEntries limits).
const maxSectionBytes = 16 + 8*(MaxVertices+1) + (4+8)*2*MaxEntries

// readSection reads one section, verifies its checksum, and returns the
// payload. The payload is read through a bounded chunked copy so a hostile
// length field cannot force a large up-front allocation.
func readSection(r io.Reader, wantTag uint32) ([]byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, corruptIO("section header", err)
	}
	tag := binary.LittleEndian.Uint32(hdr[0:])
	if tag != wantTag {
		return nil, fmt.Errorf("%w: section tag %#x, want %#x", ErrCorruptSnapshot, tag, wantTag)
	}
	length := binary.LittleEndian.Uint64(hdr[8:])
	if length > maxSectionBytes {
		return nil, fmt.Errorf("%w: section length %d exceeds format maximum", ErrCorruptSnapshot, length)
	}
	var buf bytes.Buffer
	if n, err := io.CopyN(&buf, r, int64(length)); err != nil {
		return nil, corruptIO(fmt.Sprintf("section payload (%d of %d bytes)", n, length), err)
	}
	payload := buf.Bytes()
	if pad := (8 - int(length%8)) % 8; pad > 0 {
		var pb [8]byte
		if _, err := io.ReadFull(r, pb[:pad]); err != nil {
			return nil, corruptIO("section padding", err)
		}
	}
	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, corruptIO("section checksum", err)
	}
	crc := crc64.Update(crc64.Update(0, crcTable, hdr[:]), crcTable, payload)
	if got := binary.LittleEndian.Uint64(tail[:]); got != crc {
		return nil, fmt.Errorf("%w: section %#x checksum mismatch", ErrCorruptSnapshot, tag)
	}
	return payload, nil
}

// corruptIO classifies a read failure: EOF-family errors mean a truncated
// file (corruption); anything else is a real I/O error passed through.
func corruptIO(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated in %s", ErrCorruptSnapshot, what)
	}
	return fmt.Errorf("gio: reading snapshot %s: %w", what, err)
}
