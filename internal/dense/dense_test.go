package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSPD(rng *rand.Rand, n int) *Matrix {
	// A = GᵀG + n·I is safely SPD.
	g := NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				a.Add(i, j, g.At(k, i)*g.At(k, j))
			}
		}
		a.Add(i, i, float64(n))
	}
	return a
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Errorf("At = %v", m.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("clone aliases data")
	}
}

func TestFromRowMajorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromRowMajor(2, 2, []float64{1, 2, 3})
}

func TestMulVec(t *testing.T) {
	a := FromRowMajor(2, 2, []float64{1, 2, 3, 4})
	x := []float64{1, 1}
	dst := make([]float64, 2)
	a.MulVec(dst, x)
	if dst[0] != 3 || dst[1] != 7 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestCholeskySolveRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		x := make([]float64, n)
		ch.Solve(x, b)
		if d := maxAbsDiff(x, xTrue); d > 1e-8 {
			t.Errorf("n=%d: solve error %v", n, d)
		}
	}
}

func TestCholeskySolveInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 10
	a := randSPD(rng, n)
	ch, _ := NewCholesky(a)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	ch.Solve(b, b) // alias
	if d := maxAbsDiff(b, xTrue); d > 1e-8 {
		t.Errorf("aliased solve error %v", d)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRowMajor(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, −1
	if _, err := NewCholesky(a); err == nil {
		t.Error("expected error for indefinite matrix")
	}
	b := FromRowMajor(1, 2, []float64{1, 2})
	if _, err := NewCholesky(b); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

// lapFromEdges builds a dense Laplacian for testing PinnedLaplacian.
func lapFromEdges(n int, edges [][3]float64) *Matrix {
	a := NewMatrix(n, n)
	for _, e := range edges {
		i, j, w := int(e[0]), int(e[1]), e[2]
		a.Add(i, i, w)
		a.Add(j, j, w)
		a.Add(i, j, -w)
		a.Add(j, i, -w)
	}
	return a
}

func TestPinnedLaplacianConnected(t *testing.T) {
	// Path 0-1-2 with unit weights.
	a := lapFromEdges(3, [][3]float64{{0, 1, 1}, {1, 2, 1}})
	comp := []int{0, 0, 0}
	p, err := NewPinnedLaplacian(a, comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 0, -1} // ⊥ 1
	x := make([]float64, 3)
	p.Solve(x, b)
	// Check A·x = b and mean zero.
	ax := make([]float64, 3)
	a.MulVec(ax, x)
	if d := maxAbsDiff(ax, b); d > 1e-10 {
		t.Errorf("residual %v", d)
	}
	if m := x[0] + x[1] + x[2]; math.Abs(m) > 1e-10 {
		t.Errorf("mean %v", m)
	}
}

func TestPinnedLaplacianTwoComponents(t *testing.T) {
	a := lapFromEdges(4, [][3]float64{{0, 1, 2}, {2, 3, 3}})
	comp := []int{0, 0, 1, 1}
	p, err := NewPinnedLaplacian(a, comp, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -1, 2, -2}
	x := make([]float64, 4)
	p.Solve(x, b)
	ax := make([]float64, 4)
	a.MulVec(ax, x)
	if d := maxAbsDiff(ax, b); d > 1e-10 {
		t.Errorf("residual %v", d)
	}
	if math.Abs(x[0]+x[1]) > 1e-10 || math.Abs(x[2]+x[3]) > 1e-10 {
		t.Errorf("per-component means nonzero: %v", x)
	}
}

func TestPinnedLaplacianIsPseudoInverse(t *testing.T) {
	// Compare against eigen-decomposition pseudo-inverse on a random
	// connected Laplacian.
	rng := rand.New(rand.NewSource(3))
	n := 8
	var edges [][3]float64
	for v := 1; v < n; v++ {
		edges = append(edges, [3]float64{float64(rng.Intn(v)), float64(v), 0.5 + rng.Float64()})
	}
	edges = append(edges, [3]float64{0, 7, 1.5}, [3]float64{2, 5, 0.7})
	a := lapFromEdges(n, edges)
	comp := make([]int, n)
	p, err := NewPinnedLaplacian(a, comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	mean := 0.0
	for _, v := range b {
		mean += v
	}
	for i := range b {
		b[i] -= mean / float64(n)
	}
	// Pseudo-inverse via eigen: x = Σ_{λ>0} (uᵀb/λ)·u.
	want := make([]float64, n)
	for k := 0; k < n; k++ {
		if vals[k] < 1e-9 {
			continue
		}
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += vecs.At(i, k) * b[i]
		}
		for i := 0; i < n; i++ {
			want[i] += dot / vals[k] * vecs.At(i, k)
		}
	}
	got := make([]float64, n)
	p.Solve(got, b)
	if d := maxAbsDiff(got, want); d > 1e-8 {
		t.Errorf("pinned vs pseudo-inverse differ by %v", d)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := FromRowMajor(3, 3, []float64{3, 0, 0, 0, 1, 0, 0, 0, 2})
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if maxAbsDiff(vals, want) > 1e-12 {
		t.Errorf("vals = %v", vals)
	}
	// Eigenvector of eigenvalue 1 must be ±e1.
	if math.Abs(math.Abs(vecs.At(1, 0))-1) > 1e-10 {
		t.Errorf("vec0 = %v %v %v", vecs.At(0, 0), vecs.At(1, 0), vecs.At(2, 0))
	}
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 5, 12, 30} {
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		// Check A·v_k = λ_k·v_k for all k, and orthonormality.
		for k := 0; k < n; k++ {
			v := make([]float64, n)
			for i := 0; i < n; i++ {
				v[i] = vecs.At(i, k)
			}
			av := make([]float64, n)
			a.MulVec(av, v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[k]*v[i]) > 1e-8 {
					t.Fatalf("n=%d k=%d: residual %v", n, k, av[i]-vals[k]*v[i])
				}
			}
		}
		for k1 := 0; k1 < n; k1++ {
			for k2 := k1; k2 < n; k2++ {
				dot := 0.0
				for i := 0; i < n; i++ {
					dot += vecs.At(i, k1) * vecs.At(i, k2)
				}
				want := 0.0
				if k1 == k2 {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("n=%d: <v%d,v%d> = %v", n, k1, k2, dot)
				}
			}
		}
	}
}

func TestTridiagEigAgainstJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 8, 25} {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64() * 3
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		got, err := TridiagEig(d, e)
		if err != nil {
			t.Fatal(err)
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, d[i])
		}
		for i := 0; i < n-1; i++ {
			a.Set(i, i+1, e[i])
			a.Set(i+1, i, e[i])
		}
		want, _, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		if maxAbsDiff(got, want) > 1e-8 {
			t.Errorf("n=%d: tridiag %v vs jacobi %v", n, got, want)
		}
	}
}

func TestTridiagEigKnownLaplacianSpectrum(t *testing.T) {
	// Path graph Laplacian: eigenvalues 2−2cos(kπ/n), k = 0..n−1.
	n := 10
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	d[0], d[n-1] = 1, 1
	for i := range e {
		e[i] = -1
	}
	got, err := TridiagEig(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n))
		if math.Abs(got[k]-want) > 1e-9 {
			t.Errorf("λ%d = %v, want %v", k, got[k], want)
		}
	}
}

func TestTridiagEigShapeErrors(t *testing.T) {
	if _, err := TridiagEig([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("expected shape error")
	}
	if vals, err := TridiagEig(nil, nil); err != nil || vals != nil {
		t.Error("empty input should succeed with nil result")
	}
}

func TestCholeskyPropertyResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(seed%13+13)%13
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		ch.Solve(x, b)
		ax := make([]float64, n)
		a.MulVec(ax, x)
		return maxAbsDiff(ax, b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCholesky200(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := randSPD(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEig60(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randSPD(rng, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}
