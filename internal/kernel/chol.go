package kernel

import "unsafe"

// The triangular solves of a pinned sparse Cholesky factor L (internal/sparse
// LapFactor) over packed row-major width-k blocks, columns [j0, j0+width) with
// width 8 or 4, in place in dst. L is stored column-compressed with its row
// indices in vertex numbering: column j belongs to vertex order[j], its pivot
// is diag[j] and its below-diagonal entries are val[colPtr[j]:colPtr[j+1]] in
// the rows rowIdx[colPtr[j]:colPtr[j+1]]. What a gathered id can reach is the
// rows dst holds: len(dst)/k vertices.

// CholTile runs one pass of the factor's solve over its columns [lo, hi): the
// forward scatter L·y = b in ascending columns — each vertex's row divided by
// its pivot, then scattered down the column — or, with backward set, the
// backward gather Lᵀ·x = y in descending columns — each vertex's row less its
// column gathered against the finished rows, then divided by the pivot. Per
// column of the block the operation order is that of the factor's scalar
// solve: divide, multiply then subtract, never a fused multiply-add. The
// assembly holds every order and rowIdx id against len(dst)/k and every
// column's entry range against len(rowIdx); a failure panics naming the
// column, and leaves dst as the Go form's bounds checks would: the columns
// the pass finished before it solved, a forward column's own row divided and
// its scatter up to the bad entry applied, nothing of a backward column
// stored.
func CholTile(width int, backward bool, dst, diag, val []float64, order, colPtr, rowIdx []int32, k, j0, lo, hi int) {
	check("cholTile", width, k, j0, lo, hi, span{"order", len(order), hi}, span{"colPtr", len(colPtr), hi + 1},
		span{"diag", len(diag), hi}, span{"val", len(val), len(rowIdx)})
	n := len(dst) / k
	for lo < hi {
		a, b := lo, hi
		if backward {
			a = prev(lo, hi, k)
			hi = a
		} else {
			b = next(lo, hi, k)
			lo = b
		}
		bad := -1
		switch {
		case avx2:
			tile := cholForward4AVX2
			switch {
			case width == 8 && backward:
				tile = cholBackward8AVX2
			case width == 8:
				tile = cholForward8AVX2
			case backward:
				tile = cholBackward4AVX2
			}
			bad = tile(&dst[j0], unsafe.SliceData(diag), unsafe.SliceData(val), unsafe.SliceData(order), unsafe.SliceData(colPtr),
				unsafe.SliceData(rowIdx), a, b, k, n, len(rowIdx))
		case width == 8:
			cholTile8(backward, dst, diag, val, order, colPtr, rowIdx, k, j0, a, b)
		default:
			cholTile4(backward, dst, diag, val, order, colPtr, rowIdx, k, j0, a, b)
		}
		if bad >= 0 {
			badColumn(order, colPtr, len(rowIdx), n, bad)
		}
	}
}

// prev returns the start of the chunk of [lo, hi) that ends at hi: the
// chunks of a descending pass, whole groups of four rows but the last.
func prev(lo, hi, k int) int {
	start := max(hi-ChunkRows(k), lo)
	if onChunk != nil {
		onChunk(hi - start)
	}
	return start
}

// badColumn panics for column j of a factor, which the assembly found to
// eliminate a vertex outside [0, n), to span entries outside the nnz row ids,
// or else to hold a row id outside [0, n).
func badColumn(order, colPtr []int32, nnz, n, j int) {
	if v := order[j]; uint32(v) >= uint32(n) {
		invalid("column %d eliminates vertex %d, outside [0, %d)", j, v, n)
	}
	if s, e := colPtr[j], colPtr[j+1]; s < 0 || s > e || int(e) > nnz {
		invalid("column %d spans entries [%d, %d) of %d", j, s, e, nnz)
	}
	invalid("column %d holds a row id outside [0, %d)", j, n)
}

func cholTile8(backward bool, dst, diag, val []float64, order, colPtr, rowIdx []int32, k, j0, lo, hi int) {
	if !backward {
		for j := lo; j < hi; j++ {
			b := int(order[j])*k + j0
			dv := dst[b : b+8 : b+8]
			l := diag[j]
			y0, y1, y2, y3 := dv[0]/l, dv[1]/l, dv[2]/l, dv[3]/l
			y4, y5, y6, y7 := dv[4]/l, dv[5]/l, dv[6]/l, dv[7]/l
			dv[0], dv[1], dv[2], dv[3] = y0, y1, y2, y3
			dv[4], dv[5], dv[6], dv[7] = y4, y5, y6, y7
			rows := rowIdx[colPtr[j]:colPtr[j+1]]
			vals := val[colPtr[j]:colPtr[j+1]]
			for q, r := range rows {
				lq := vals[q]
				rb := int(r)*k + j0
				dr := dst[rb : rb+8 : rb+8]
				dr[0] -= lq * y0
				dr[1] -= lq * y1
				dr[2] -= lq * y2
				dr[3] -= lq * y3
				dr[4] -= lq * y4
				dr[5] -= lq * y5
				dr[6] -= lq * y6
				dr[7] -= lq * y7
			}
		}
		return
	}
	for j := hi - 1; j >= lo; j-- {
		b := int(order[j])*k + j0
		dv := dst[b : b+8 : b+8]
		s0, s1, s2, s3, s4, s5, s6, s7 := dv[0], dv[1], dv[2], dv[3], dv[4], dv[5], dv[6], dv[7]
		rows := rowIdx[colPtr[j]:colPtr[j+1]]
		vals := val[colPtr[j]:colPtr[j+1]]
		for q, r := range rows {
			lq := vals[q]
			rb := int(r)*k + j0
			dr := dst[rb : rb+8 : rb+8]
			s0 -= lq * dr[0]
			s1 -= lq * dr[1]
			s2 -= lq * dr[2]
			s3 -= lq * dr[3]
			s4 -= lq * dr[4]
			s5 -= lq * dr[5]
			s6 -= lq * dr[6]
			s7 -= lq * dr[7]
		}
		l := diag[j]
		dv[0], dv[1], dv[2], dv[3] = s0/l, s1/l, s2/l, s3/l
		dv[4], dv[5], dv[6], dv[7] = s4/l, s5/l, s6/l, s7/l
	}
}

func cholTile4(backward bool, dst, diag, val []float64, order, colPtr, rowIdx []int32, k, j0, lo, hi int) {
	if !backward {
		for j := lo; j < hi; j++ {
			b := int(order[j])*k + j0
			dv := dst[b : b+4 : b+4]
			l := diag[j]
			y0, y1, y2, y3 := dv[0]/l, dv[1]/l, dv[2]/l, dv[3]/l
			dv[0], dv[1], dv[2], dv[3] = y0, y1, y2, y3
			rows := rowIdx[colPtr[j]:colPtr[j+1]]
			vals := val[colPtr[j]:colPtr[j+1]]
			for q, r := range rows {
				lq := vals[q]
				rb := int(r)*k + j0
				dr := dst[rb : rb+4 : rb+4]
				dr[0] -= lq * y0
				dr[1] -= lq * y1
				dr[2] -= lq * y2
				dr[3] -= lq * y3
			}
		}
		return
	}
	for j := hi - 1; j >= lo; j-- {
		b := int(order[j])*k + j0
		dv := dst[b : b+4 : b+4]
		s0, s1, s2, s3 := dv[0], dv[1], dv[2], dv[3]
		rows := rowIdx[colPtr[j]:colPtr[j+1]]
		vals := val[colPtr[j]:colPtr[j+1]]
		for q, r := range rows {
			lq := vals[q]
			rb := int(r)*k + j0
			dr := dst[rb : rb+4 : rb+4]
			s0 -= lq * dr[0]
			s1 -= lq * dr[1]
			s2 -= lq * dr[2]
			s3 -= lq * dr[3]
		}
		l := diag[j]
		dv[0], dv[1], dv[2], dv[3] = s0/l, s1/l, s2/l, s3/l
	}
}
