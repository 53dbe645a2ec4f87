package kernel

// The solver's level-1 sweeps over packed row-major width-k blocks: each body
// covers columns [j0, j0+width), width 8 or 4, of rows [lo, hi), holds a
// row's columns, its coefficients (α, β, the means) and the reduction's
// accumulators in locals — in the assembly, one vector register per four
// columns — and stores the accumulators into acc[j0:j0+width] once, on top of
// what it found there. Per column the operations are the callers' width-1
// loop's, in its order: rows ascending, products and sums as written.

// Dots adds Σ_v a[v·k+j]·b[v·k+j] to acc[j] — or, with b nil, Σ_v a[v·k+j].
func Dots(width int, a, b []float64, k, j0, lo, hi int, acc []float64) {
	check("dots", width, k, j0, lo, hi, span{"a", len(a), hi * k}, opt("b", b, hi*k), span{"acc", len(acc), j0 + width})
	for lo < hi {
		end, o := next(lo, hi, k), lo*k+j0
		switch {
		case avx2 && width == 8:
			dots8AVX2(&a[o], at(b, o), &acc[j0], end-lo, k)
		case avx2:
			dots4AVX2(&a[o], at(b, o), &acc[j0], end-lo, k)
		case b == nil && width == 8:
			colSumsTile8(a, k, j0, lo, end, acc)
		case b == nil:
			colSumsTile4(a, k, j0, lo, end, acc)
		case width == 8:
			dotsTile8(a, b, k, j0, lo, end, acc)
		default:
			dotsTile4(a, b, k, j0, lo, end, acc)
		}
		lo = end
	}
}

// SubMeanDot subtracts mean[j] from z's column j and adds Σ_v r[v·k+j]·z[v·k+j]
// of the shifted z to acc[j]. r may be z itself: every form stores the shifted
// entry before it loads r's.
func SubMeanDot(width int, z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	check("subMeanDot", width, k, j0, lo, hi, span{"z", len(z), hi * k}, span{"r", len(r), hi * k},
		span{"mean", len(mean), j0 + width}, span{"acc", len(acc), j0 + width})
	for lo < hi {
		end, o := next(lo, hi, k), lo*k+j0
		switch {
		case avx2 && width == 8:
			subMeanDot8AVX2(&z[o], &r[o], &mean[j0], &acc[j0], end-lo, k)
		case avx2:
			subMeanDot4AVX2(&z[o], &r[o], &mean[j0], &acc[j0], end-lo, k)
		case width == 8:
			subMeanDotTile8(z, r, mean, k, j0, lo, end, acc)
		default:
			subMeanDotTile4(z, r, mean, k, j0, lo, end, acc)
		}
		lo = end
	}
}

// UpdateXRSums is the fused PCG update x += α∘p, r −= α∘ap, adding the new
// residual's column sums to acc.
func UpdateXRSums(width int, x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	check("updateXRSums", width, k, j0, lo, hi, span{"x", len(x), hi * k}, span{"r", len(r), hi * k},
		span{"p", len(p), hi * k}, span{"ap", len(ap), hi * k}, span{"alpha", len(alpha), j0 + width}, span{"acc", len(acc), j0 + width})
	for lo < hi {
		end, o := next(lo, hi, k), lo*k+j0
		switch {
		case avx2 && width == 8:
			updateXRSums8AVX2(&x[o], &r[o], &p[o], &ap[o], &alpha[j0], &acc[j0], end-lo, k)
		case avx2:
			updateXRSums4AVX2(&x[o], &r[o], &p[o], &ap[o], &alpha[j0], &acc[j0], end-lo, k)
		case width == 8:
			updateXRSumsTile8(x, r, p, ap, alpha, k, j0, lo, end, acc)
		default:
			updateXRSumsTile4(x, r, p, ap, alpha, k, j0, lo, end, acc)
		}
		lo = end
	}
}

// XPBY computes p = z + β∘p, the direction update.
func XPBY(width int, p, z, beta []float64, k, j0, lo, hi int) {
	check("xpby", width, k, j0, lo, hi, span{"p", len(p), hi * k}, span{"z", len(z), hi * k}, span{"beta", len(beta), j0 + width})
	for lo < hi {
		end, o := next(lo, hi, k), lo*k+j0
		switch {
		case avx2 && width == 8:
			xpby8AVX2(&p[o], &z[o], &beta[j0], end-lo, k)
		case avx2:
			xpby4AVX2(&p[o], &z[o], &beta[j0], end-lo, k)
		case width == 8:
			xpbyTile8(p, z, beta, k, j0, lo, end)
		default:
			xpbyTile4(p, z, beta, k, j0, lo, end)
		}
		lo = end
	}
}

func dotsTile8(a, b []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for o := lo*k + j0; o < hi*k; o += k {
		av := a[o : o+8 : o+8]
		bv := b[o : o+8 : o+8]
		s0 += av[0] * bv[0]
		s1 += av[1] * bv[1]
		s2 += av[2] * bv[2]
		s3 += av[3] * bv[3]
		s4 += av[4] * bv[4]
		s5 += av[5] * bv[5]
		s6 += av[6] * bv[6]
		s7 += av[7] * bv[7]
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func dotsTile4(a, b []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	for o := lo*k + j0; o < hi*k; o += k {
		av := a[o : o+4 : o+4]
		bv := b[o : o+4 : o+4]
		s0 += av[0] * bv[0]
		s1 += av[1] * bv[1]
		s2 += av[2] * bv[2]
		s3 += av[3] * bv[3]
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func colSumsTile8(x []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+8 : o+8]
		s0 += xv[0]
		s1 += xv[1]
		s2 += xv[2]
		s3 += xv[3]
		s4 += xv[4]
		s5 += xv[5]
		s6 += xv[6]
		s7 += xv[7]
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func colSumsTile4(x []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+4 : o+4]
		s0 += xv[0]
		s1 += xv[1]
		s2 += xv[2]
		s3 += xv[3]
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func subMeanDotTile8(z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	mean = mean[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	m0, m1, m2, m3, m4, m5, m6, m7 := mean[0], mean[1], mean[2], mean[3], mean[4], mean[5], mean[6], mean[7]
	for o := lo*k + j0; o < hi*k; o += k {
		zv := z[o : o+8 : o+8]
		rv := r[o : o+8 : o+8]
		z0 := zv[0] - m0
		zv[0] = z0
		s0 += rv[0] * z0
		z1 := zv[1] - m1
		zv[1] = z1
		s1 += rv[1] * z1
		z2 := zv[2] - m2
		zv[2] = z2
		s2 += rv[2] * z2
		z3 := zv[3] - m3
		zv[3] = z3
		s3 += rv[3] * z3
		z4 := zv[4] - m4
		zv[4] = z4
		s4 += rv[4] * z4
		z5 := zv[5] - m5
		zv[5] = z5
		s5 += rv[5] * z5
		z6 := zv[6] - m6
		zv[6] = z6
		s6 += rv[6] * z6
		z7 := zv[7] - m7
		zv[7] = z7
		s7 += rv[7] * z7
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func subMeanDotTile4(z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	mean = mean[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	m0, m1, m2, m3 := mean[0], mean[1], mean[2], mean[3]
	for o := lo*k + j0; o < hi*k; o += k {
		zv := z[o : o+4 : o+4]
		rv := r[o : o+4 : o+4]
		z0 := zv[0] - m0
		zv[0] = z0
		s0 += rv[0] * z0
		z1 := zv[1] - m1
		zv[1] = z1
		s1 += rv[1] * z1
		z2 := zv[2] - m2
		zv[2] = z2
		s2 += rv[2] * z2
		z3 := zv[3] - m3
		zv[3] = z3
		s3 += rv[3] * z3
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func updateXRSumsTile8(x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	alpha = alpha[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	a0, a1, a2, a3, a4, a5, a6, a7 := alpha[0], alpha[1], alpha[2], alpha[3], alpha[4], alpha[5], alpha[6], alpha[7]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+8 : o+8]
		rv := r[o : o+8 : o+8]
		pv := p[o : o+8 : o+8]
		av := ap[o : o+8 : o+8]
		xv[0] += a0 * pv[0]
		r0 := rv[0] - a0*av[0]
		rv[0] = r0
		s0 += r0
		xv[1] += a1 * pv[1]
		r1 := rv[1] - a1*av[1]
		rv[1] = r1
		s1 += r1
		xv[2] += a2 * pv[2]
		r2 := rv[2] - a2*av[2]
		rv[2] = r2
		s2 += r2
		xv[3] += a3 * pv[3]
		r3 := rv[3] - a3*av[3]
		rv[3] = r3
		s3 += r3
		xv[4] += a4 * pv[4]
		r4 := rv[4] - a4*av[4]
		rv[4] = r4
		s4 += r4
		xv[5] += a5 * pv[5]
		r5 := rv[5] - a5*av[5]
		rv[5] = r5
		s5 += r5
		xv[6] += a6 * pv[6]
		r6 := rv[6] - a6*av[6]
		rv[6] = r6
		s6 += r6
		xv[7] += a7 * pv[7]
		r7 := rv[7] - a7*av[7]
		rv[7] = r7
		s7 += r7
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func updateXRSumsTile4(x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	alpha = alpha[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+4 : o+4]
		rv := r[o : o+4 : o+4]
		pv := p[o : o+4 : o+4]
		av := ap[o : o+4 : o+4]
		xv[0] += a0 * pv[0]
		r0 := rv[0] - a0*av[0]
		rv[0] = r0
		s0 += r0
		xv[1] += a1 * pv[1]
		r1 := rv[1] - a1*av[1]
		rv[1] = r1
		s1 += r1
		xv[2] += a2 * pv[2]
		r2 := rv[2] - a2*av[2]
		rv[2] = r2
		s2 += r2
		xv[3] += a3 * pv[3]
		r3 := rv[3] - a3*av[3]
		rv[3] = r3
		s3 += r3
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func xpbyTile8(p, z, beta []float64, k, j0, lo, hi int) {
	beta = beta[j0 : j0+8 : j0+8]
	b0, b1, b2, b3, b4, b5, b6, b7 := beta[0], beta[1], beta[2], beta[3], beta[4], beta[5], beta[6], beta[7]
	for o := lo*k + j0; o < hi*k; o += k {
		pv := p[o : o+8 : o+8]
		zv := z[o : o+8 : o+8]
		pv[0] = zv[0] + b0*pv[0]
		pv[1] = zv[1] + b1*pv[1]
		pv[2] = zv[2] + b2*pv[2]
		pv[3] = zv[3] + b3*pv[3]
		pv[4] = zv[4] + b4*pv[4]
		pv[5] = zv[5] + b5*pv[5]
		pv[6] = zv[6] + b6*pv[6]
		pv[7] = zv[7] + b7*pv[7]
	}
}

func xpbyTile4(p, z, beta []float64, k, j0, lo, hi int) {
	beta = beta[j0 : j0+4 : j0+4]
	b0, b1, b2, b3 := beta[0], beta[1], beta[2], beta[3]
	for o := lo*k + j0; o < hi*k; o += k {
		pv := p[o : o+4 : o+4]
		zv := z[o : o+4 : o+4]
		pv[0] = zv[0] + b0*pv[0]
		pv[1] = zv[1] + b1*pv[1]
		pv[2] = zv[2] + b2*pv[2]
		pv[3] = zv[3] + b3*pv[3]
	}
}
