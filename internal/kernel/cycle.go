package kernel

import "unsafe"

// The cycle's sweeps between a level's vertices and its clusters, over packed
// row-major width-k blocks, columns [j0, j0+width) with width 8 or 4. A
// level's restriction tables are the cluster of every vertex (assign), and
// every cluster's members in ascending order (order, cluster c's members at
// order[start[c]:start[c+1]]). What a gathered index can reach is the rows its
// block holds: len(r)/k vertices for a member id, len(xq)/k clusters for a
// cluster id.

// Restrict computes rq = Rᵀr on clusters [lo, hi): each cluster's row is the
// sum of its members' rows in ascending order, from +0. The assembly holds
// every cluster end against len(order) and every member id against
// len(r)/k; a failure panics, naming the cluster, with nothing of it stored.
func Restrict(width int, r, rq []float64, order, start []int32, k, j0, lo, hi int) {
	check("restrict", width, k, j0, lo, hi, span{"rq", len(rq), hi * k}, span{"start", len(start), hi + 1})
	n := len(r) / k
	for lo < hi {
		end := next(lo, hi, k)
		switch {
		case !avx2 && width == 8:
			restrictTile8(r, rq, order, start, k, j0, lo, end)
		case !avx2:
			restrictTile4(r, rq, order, start, k, j0, lo, end)
		default:
			if s := start[lo]; s < 0 || int(s) > len(order) {
				invalid("cluster %d starts at %d, outside the %d entries of the restriction order", lo, s, len(order))
			}
			tile := restrict4AVX2
			if width == 8 {
				tile = restrict8AVX2
			}
			if c := tile(&r[j0], &rq[j0], unsafe.SliceData(order), &start[0], lo, end, k, n, len(order)); c >= 0 {
				if e := start[c+1]; int(e) > len(order) {
					invalid("cluster %d ends at %d, beyond the %d entries of the restriction order", c, e, len(order))
				}
				invalid("cluster %d holds a member id outside [0, %d)", c, n)
			}
		}
		lo = end
	}
}

// ProlongAdd computes x += α·R·xq on vertices [lo, hi): every vertex adds its
// cluster's row of xq, scaled by alpha. The assembly holds every cluster id
// against len(xq)/k; a failure panics, naming the vertex, with nothing of it
// stored.
func ProlongAdd(width int, x, xq []float64, alpha float64, assign []int32, k, j0, lo, hi int) {
	check("prolongAdd", width, k, j0, lo, hi, span{"x", len(x), hi * k}, span{"assign", len(assign), hi})
	count := len(xq) / k
	for lo < hi {
		end, v := next(lo, hi, k), -1
		switch {
		case avx2 && width == 8:
			v = prolongAdd8AVX2(&x[lo*k+j0], &xq[j0], alpha, &assign[lo], end-lo, k, count)
		case avx2:
			v = prolongAdd4AVX2(&x[lo*k+j0], &xq[j0], alpha, &assign[lo], end-lo, k, count)
		case width == 8:
			prolongAddTile8(x, xq, alpha, assign, k, j0, lo, end)
		default:
			prolongAddTile4(x, xq, alpha, assign, k, j0, lo, end)
		}
		if v >= 0 {
			invalid("vertex %d is assigned to cluster %d, outside [0, %d)", lo+v, assign[lo+v], count)
		}
		lo = end
	}
}

// JacobiFromZero computes x = (ω·r)·dInv[v] on vertices [lo, hi): the first
// damped-Jacobi step, from a zero iterate, rounded as the k = 1 loop rounds it.
func JacobiFromZero(width int, x, r, dInv []float64, omega float64, k, j0, lo, hi int) {
	check("jacobiFromZero", width, k, j0, lo, hi, span{"x", len(x), hi * k}, span{"r", len(r), hi * k}, span{"dInv", len(dInv), hi})
	for lo < hi {
		end, o := next(lo, hi, k), lo*k+j0
		switch {
		case avx2 && width == 8:
			jacobiFromZero8AVX2(&x[o], &r[o], &dInv[lo], omega, end-lo, k)
		case avx2:
			jacobiFromZero4AVX2(&x[o], &r[o], &dInv[lo], omega, end-lo, k)
		case width == 8:
			jacobiFromZeroTile8(x, r, dInv, omega, k, j0, lo, end)
		default:
			jacobiFromZeroTile4(x, r, dInv, omega, k, j0, lo, end)
		}
		lo = end
	}
}

func restrictTile8(r, rq []float64, order, start []int32, k, j0, lo, hi int) {
	i := start[lo]
	for c, end := range start[lo+1 : hi+1] {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for ; i < end; i++ {
			o := int(order[i])*k + j0
			rv := r[o : o+8 : o+8]
			a0 += rv[0]
			a1 += rv[1]
			a2 += rv[2]
			a3 += rv[3]
			a4 += rv[4]
			a5 += rv[5]
			a6 += rv[6]
			a7 += rv[7]
		}
		o := (lo+c)*k + j0
		acc := rq[o : o+8 : o+8]
		acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

func restrictTile4(r, rq []float64, order, start []int32, k, j0, lo, hi int) {
	i := start[lo]
	for c, end := range start[lo+1 : hi+1] {
		var a0, a1, a2, a3 float64
		for ; i < end; i++ {
			o := int(order[i])*k + j0
			rv := r[o : o+4 : o+4]
			a0 += rv[0]
			a1 += rv[1]
			a2 += rv[2]
			a3 += rv[3]
		}
		o := (lo+c)*k + j0
		acc := rq[o : o+4 : o+4]
		acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	}
}

func prolongAddTile8(x, xq []float64, alpha float64, assign []int32, k, j0, lo, hi int) {
	for v, c := range assign[lo:hi] {
		o := (lo+v)*k + j0
		xv := x[o : o+8 : o+8]
		o = int(c)*k + j0
		q := xq[o : o+8 : o+8]
		xv[0] += alpha * q[0]
		xv[1] += alpha * q[1]
		xv[2] += alpha * q[2]
		xv[3] += alpha * q[3]
		xv[4] += alpha * q[4]
		xv[5] += alpha * q[5]
		xv[6] += alpha * q[6]
		xv[7] += alpha * q[7]
	}
}

func prolongAddTile4(x, xq []float64, alpha float64, assign []int32, k, j0, lo, hi int) {
	for v, c := range assign[lo:hi] {
		o := (lo+v)*k + j0
		xv := x[o : o+4 : o+4]
		o = int(c)*k + j0
		q := xq[o : o+4 : o+4]
		xv[0] += alpha * q[0]
		xv[1] += alpha * q[1]
		xv[2] += alpha * q[2]
		xv[3] += alpha * q[3]
	}
}

func jacobiFromZeroTile8(x, r, dInv []float64, omega float64, k, j0, lo, hi int) {
	for v, d := range dInv[lo:hi] {
		o := (lo+v)*k + j0
		rv := r[o : o+8 : o+8]
		xv := x[o : o+8 : o+8]
		xv[0] = omega * rv[0] * d
		xv[1] = omega * rv[1] * d
		xv[2] = omega * rv[2] * d
		xv[3] = omega * rv[3] * d
		xv[4] = omega * rv[4] * d
		xv[5] = omega * rv[5] * d
		xv[6] = omega * rv[6] * d
		xv[7] = omega * rv[7] * d
	}
}

func jacobiFromZeroTile4(x, r, dInv []float64, omega float64, k, j0, lo, hi int) {
	for v, d := range dInv[lo:hi] {
		o := (lo+v)*k + j0
		rv := r[o : o+4 : o+4]
		xv := x[o : o+4 : o+4]
		xv[0] = omega * rv[0] * d
		xv[1] = omega * rv[1] * d
		xv[2] = omega * rv[2] * d
		xv[3] = omega * rv[3] * d
	}
}
