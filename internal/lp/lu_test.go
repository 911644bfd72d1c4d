package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
)

// gaussJordanInverse inverts the row-major m×m matrix a with partial
// pivoting, independently of the LU under test; nil means singular.
func gaussJordanInverse(a []float64, m int) []float64 {
	a = append([]float64(nil), a...)
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for c := 0; c < m; c++ {
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(a[r*m+c]) > math.Abs(a[p*m+c]) {
				p = r
			}
		}
		if math.Abs(a[p*m+c]) < 1e-12 {
			return nil
		}
		for k := 0; k < m; k++ {
			a[p*m+k], a[c*m+k] = a[c*m+k], a[p*m+k]
			inv[p*m+k], inv[c*m+k] = inv[c*m+k], inv[p*m+k]
		}
		d := 1 / a[c*m+c]
		for k := 0; k < m; k++ {
			a[c*m+k] *= d
			inv[c*m+k] *= d
		}
		for r := 0; r < m; r++ {
			if f := a[r*m+c]; r != c && f != 0 {
				for k := 0; k < m; k++ {
					a[r*m+k] -= f * a[c*m+k]
					inv[r*m+k] -= f * inv[c*m+k]
				}
			}
		}
	}
	return inv
}

// basisMatrix returns the row-major basis matrix whose column r is the
// column basic in row r.
func basisMatrix(sf *standardForm, basis []int) []float64 {
	m := sf.m
	b := make([]float64, m*m)
	col := make([]float64, m)
	for r, j := range basis {
		for i := range col {
			col[i] = 0
		}
		sf.scatterColumn(j, 1, col)
		for i, v := range col {
			b[i*m+r] = v
		}
	}
	return b
}

// kernelCase pairs the sparse LU representation of a basis with a dense
// reference inverse of the same basis, and drives both through the same
// basis changes: Forrest–Tomlin updates on the LU side, explicit-inverse
// updates on the reference side.
type kernelCase struct {
	sf        *standardForm
	ws        *Workspace
	lu        *luBasis
	ref       *denseInverse
	basis     []int
	inBasis   []bool
	refactors int // refactorizations forced by the stability check
}

// newKernelCase factorizes the basis cols; ok=false when the reference
// finds it singular (the LU must then have refused it too).
func newKernelCase(sf *standardForm, cols []int) (kc *kernelCase, ok bool, err error) {
	m := sf.m
	ws := NewWorkspace()
	lu := ws.sparseRep(m)
	rowOf := make([]int, m)
	ferr := lu.factor(sf, cols, rowOf, ws)
	var binv []float64
	basis := make([]int, m)
	if ferr == nil {
		for i, j := range cols {
			basis[rowOf[i]] = j
		}
		binv = gaussJordanInverse(basisMatrix(sf, basis), m)
	} else {
		binv = gaussJordanInverse(basisMatrix(sf, cols), m)
	}
	switch {
	case ferr != nil && binv == nil:
		return nil, false, nil
	case ferr != nil:
		return nil, false, fmt.Errorf("LU refused a nonsingular basis: %v", ferr)
	case binv == nil:
		return nil, false, fmt.Errorf("LU factorized a singular basis")
	}
	ref := &denseInverse{}
	ref.reset(m)
	copy(ref.binv, binv)
	kc = &kernelCase{sf: sf, ws: ws, lu: lu, ref: ref, basis: basis, inBasis: make([]bool, sf.n)}
	for _, j := range basis {
		kc.inBasis[j] = true
	}
	return kc, true, nil
}

// clone copies the case; the LU copy goes through basisRep.clone into a
// fresh Workspace.
func (kc *kernelCase) clone() *kernelCase {
	ws := NewWorkspace()
	return &kernelCase{
		sf:      kc.sf,
		ws:      ws,
		lu:      kc.lu.clone(ws).(*luBasis),
		ref:     kc.ref.clone(nil).(*denseInverse),
		basis:   append([]int(nil), kc.basis...),
		inBasis: append([]bool(nil), kc.inBasis...),
	}
}

// refactor rebuilds the LU from scratch for the current basis, as the
// solver does when shouldRefactor asks for it, and takes the row
// assignment it chose (rebuilding the reference for it).
func (kc *kernelCase) refactor() error {
	m := kc.sf.m
	cols := append([]int(nil), kc.basis...)
	rowOf := make([]int, m)
	if err := kc.lu.factor(kc.sf, cols, rowOf, kc.ws); err != nil {
		return fmt.Errorf("refactorization of a nonsingular basis failed: %v", err)
	}
	for i, j := range cols {
		kc.basis[rowOf[i]] = j
	}
	binv := gaussJordanInverse(basisMatrix(kc.sf, kc.basis), m)
	if binv == nil {
		return fmt.Errorf("reference finds the updated basis singular")
	}
	copy(kc.ref.binv, binv)
	return nil
}

// closeTo compares within 1e-9 relative to the reference's magnitude.
func closeTo(what string, got, want []float64) error {
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*scale {
			return fmt.Errorf("%s: entry %d is %v, reference %v (scale %v)", what, i, got[i], want[i], scale)
		}
	}
	return nil
}

// check compares ftran (of a random dense vector and of a column), btran
// and btranUnit against the reference.
func (kc *kernelCase) check(rng *rand.Rand) error {
	m := kc.sf.m
	a := make([]float64, m)
	b := make([]float64, m)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	copy(b, a)
	kc.lu.ftran(a)
	kc.ref.ftran(b)
	if err := closeTo("ftran", a, b); err != nil {
		return err
	}
	for i := range a {
		a[i] = 0
	}
	kc.sf.scatterColumn(rng.Intn(kc.sf.n), 1, a)
	copy(b, a)
	kc.lu.ftran(a)
	kc.ref.ftran(b)
	if err := closeTo("ftran column", a, b); err != nil {
		return err
	}
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	copy(b, a)
	kc.lu.btran(a)
	kc.ref.btran(b)
	if err := closeTo("btran", a, b); err != nil {
		return err
	}
	r := rng.Intn(m)
	kc.lu.btranUnit(r, a)
	kc.ref.btranUnit(r, b)
	return closeTo(fmt.Sprintf("btranUnit(%d)", r), a, b)
}

// step exchanges a random nonbasic column into the basis at the row of
// its largest reference ftran entry. The LU takes the entering column
// through ftranColumn and a Forrest–Tomlin update, with tamper applied
// to the w it is handed (nil: none); when the update fails its
// stability check the LU is refactorized. The update cap and growth
// trigger are ignored, so update chains run past them.
func (kc *kernelCase) step(rng *rand.Rand, tamper func(r int, w []float64)) error {
	m := kc.sf.m
	w := make([]float64, m)
	for try := 0; try < 50; try++ {
		j := rng.Intn(kc.sf.n)
		if kc.inBasis[j] {
			continue
		}
		kc.ref.ftranColumn(kc.sf, j, w)
		r := 0
		for i := range w {
			if math.Abs(w[i]) > math.Abs(w[r]) {
				r = i
			}
		}
		if math.Abs(w[r]) < 1e-3 {
			continue
		}
		v := make([]float64, m)
		kc.lu.ftranColumn(kc.sf, j, v)
		if tamper != nil {
			tamper(r, v)
		}
		kc.lu.update(r, v)
		kc.ref.update(r, w)
		kc.inBasis[kc.basis[r]] = false
		kc.inBasis[j] = true
		kc.basis[r] = j
		if kc.lu.stale {
			kc.refactors++
			return kc.refactor()
		}
		return nil
	}
	return fmt.Errorf("no well-conditioned entering column found")
}

// randomSparseSF builds a standard form with m rows and 2m structural
// columns of 2–5 random entries each, and a random basis mixing slacks
// and structurals.
func randomSparseSF(rng *rand.Rand) (*standardForm, []int) {
	m := 5 + rng.Intn(36)
	nv := 2 * m
	ps := &problemSpec{}
	rows := make([][]Term, m)
	for j := 0; j < nv; j++ {
		ps.obj = append(ps.obj, 0)
		ps.ub = append(ps.ub, 1)
		for k := 2 + rng.Intn(4); k > 0; k-- {
			v := 0.5 + 1.5*rng.Float64()
			if rng.Intn(2) == 0 {
				v = -v
			}
			r := rng.Intn(m)
			rows[r] = append(rows[r], Term{j, v})
		}
	}
	for r := 0; r < m; r++ {
		ps.rows = append(ps.rows, specRow{LE, 1, rows[r]})
	}
	sf := &standardForm{}
	sf.build(ps.build(), NewWorkspace())
	cols := make([]int, m)
	perm := rng.Perm(nv)
	for r := range cols {
		if rng.Float64() < 0.5 {
			cols[r] = nv + r
		} else {
			cols[r] = perm[r]
		}
	}
	return sf, cols
}

// schedShapeSF solves a randomSchedShapeSpec instance and returns its
// standard form and optimal basis (nil when not optimal).
func schedShapeSF(rng *rand.Rand) (*standardForm, []int) {
	be, err := NewBackend(Sparse, randomSchedShapeSpec(rng).build(), nil, WithPresolve(false))
	if err != nil {
		return nil, nil
	}
	if sol, err := be.Solve(); err != nil || sol.Status != Optimal {
		return nil, nil
	}
	s := be.(*solverState)
	return &s.sf, append([]int(nil), s.basis...)
}

// TestLUKernelMatchesDenseInverse pins the LU kernel against an
// independent dense inverse: on random sparse bases and on optimal bases
// of scheduling-shaped LPs, ftran, btran and btranUnit must agree within
// 1e-9 relative after each of 0…150 Forrest–Tomlin updates (past the
// production update cap), singular bases must be refused exactly when the
// reference finds them singular, and a clone taken mid-sequence must stay
// correct while it and the original take different updates concurrently
// (run under -race, this also shows the two share no storage).
func TestLUKernelMatchesDenseInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const updates = 150
	cases, singular, refactors := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		var kc *kernelCase
		for try := 0; kc == nil && try < 20; try++ {
			var sf *standardForm
			var cols []int
			if trial%2 == 0 {
				sf, cols = randomSparseSF(rng)
			} else if sf, cols = schedShapeSF(rng); sf == nil {
				continue
			}
			c, ok, err := newKernelCase(sf, cols)
			if err != nil {
				t.Fatalf("trial %d (m=%d): %v", trial, sf.m, err)
			}
			if !ok {
				singular++
			}
			kc = c
		}
		if kc == nil {
			continue
		}
		sf := kc.sf
		cases++
		for k := 0; k <= updates/2; k++ {
			if err := kc.check(rng); err != nil {
				t.Fatalf("trial %d (m=%d) after %d updates: %v", trial, sf.m, k, err)
			}
			if k < updates/2 {
				if err := kc.step(rng, nil); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		}
		// The second half runs on the original and a clone at once.
		pair := []*kernelCase{kc, kc.clone()}
		var wg sync.WaitGroup
		for i, c := range pair {
			wg.Add(1)
			go func(i int, c *kernelCase, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for k := updates / 2; k < updates; k++ {
					if err := c.step(rng, nil); err != nil {
						t.Errorf("trial %d copy %d: %v", trial, i, err)
						return
					}
					if err := c.check(rng); err != nil {
						t.Errorf("trial %d copy %d after %d updates: %v", trial, i, k+1, err)
						return
					}
				}
			}(i, c, int64(trial*2+i))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		refactors += pair[0].refactors + pair[1].refactors
	}
	if cases < 50 || singular == 0 {
		t.Fatalf("corpus degenerated: %d factorized cases, %d singular", cases, singular)
	}
	// A chain cut short by the stability check would test less than it
	// claims: nearly every chain must run its 150 updates on one factor.
	if refactors > cases/10 {
		t.Errorf("%d stability refactorizations over %d update chains", refactors, 2*cases)
	}
	t.Logf("%d bases factorized and updated %d times, %d singular bases refused, %d stability refactorizations",
		cases, updates, singular, refactors)
}

// TestLUUpdateStabilityFallback: an update whose Forrest–Tomlin diagonal
// disagrees with w[r]·(old diagonal) — here because the pivot element it
// is handed is off by 1% — must mark the factor for refactorization, and
// the refactorized representation must match the reference. Untampered
// updates of the same chains must pass the check.
func TestLUUpdateStabilityFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	forced := 0
	for trial := 0; trial < 20; trial++ {
		sf, cols := randomSparseSF(rng)
		kc, ok, err := newKernelCase(sf, cols)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for k := 0; k < 30; k++ {
			var tamper func(int, []float64)
			if k%10 == 9 {
				tamper = func(r int, w []float64) { w[r] *= 1.01 }
			}
			before := kc.refactors
			if err := kc.step(rng, tamper); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, k, err)
			}
			if fell := kc.refactors > before; fell != (tamper != nil) {
				t.Fatalf("trial %d step %d: tampered=%v but refactorized=%v", trial, k, tamper != nil, fell)
			}
			if tamper != nil {
				forced++
				if f := &kc.lu.fac; f.updates != 0 || kc.lu.shouldRefactor() {
					t.Fatalf("trial %d step %d: refactorized factor still carries %d updates", trial, k, f.updates)
				}
			}
			if err := kc.check(rng); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, k, err)
			}
		}
	}
	if forced == 0 {
		t.Fatal("no tampered update was exercised")
	}
}

// TestRefactorFailureLeavesStateIntact: a singular basis found by
// refactor must leave basis, status and the representation as they were,
// and a Solve that fails on it must cold-reset the backend, so the next
// Solve answers like a fresh backend.
func TestRefactorFailureLeavesStateIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		ps := randomSchedShapeSpec(rng)
		for j := range ps.obj {
			ps.obj[j] = -rng.Float64() // a real objective: verdict and value both count
		}
		be, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		if sol, err := be.Solve(); err != nil || sol.Status != Optimal {
			continue
		}
		s := be.(*solverState)
		// Duplicate a structural basic column into another row.
		src := -1
		for r, j := range s.basis {
			if j < s.sf.nv {
				src = r
				break
			}
		}
		if src < 0 {
			continue
		}
		orig := append([]int(nil), s.basis...)
		s.basis[(src+1)%s.sf.m] = s.basis[src]
		basis0 := append([]int(nil), s.basis...)
		status0 := append([]varStatus(nil), s.status...)
		if err := s.refactor(); err == nil {
			t.Fatalf("trial %d: refactor accepted a basis with a duplicated column", trial)
		}
		for r := range basis0 {
			if s.basis[r] != basis0[r] {
				t.Fatalf("trial %d: failed refactor moved row %d from column %d to %d", trial, r, basis0[r], s.basis[r])
			}
		}
		for j := range status0 {
			if s.status[j] != status0[j] {
				t.Fatalf("trial %d: failed refactor changed the status of column %d", trial, j)
			}
		}
		// The representation still inverts the basis it held before.
		for r, j := range orig {
			w := s.ftranColumn(j)
			for i, v := range w {
				want := 0.0
				if i == r {
					want = 1
				}
				if math.Abs(v-want) > 1e-9 {
					t.Fatalf("trial %d: after the failed refactor, B⁻¹·a_%d has %v in row %d, want %v", trial, j, v, i, want)
				}
			}
		}
		// The cold path hits the same refactorization: make the
		// representation stale so the first primal iteration refactors.
		s.dualOK = false
		s.inv.(*luBasis).stale = true
		if _, err := s.Solve(); err == nil {
			t.Fatalf("trial %d: Solve succeeded on a singular basis", trial)
		}
		got, err := s.Solve()
		if err != nil {
			t.Fatalf("trial %d: Solve after the failed one: %v", trial, err)
		}
		fresh, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: after the failure Solve gives %v/%v, a fresh backend %v/%v",
				trial, got.Status, got.Objective, want.Status, want.Objective)
		}
		return
	}
	t.Fatal("no trial produced an optimal basis with a structural column")
}

// relaxationLP mirrors the rounding solver's ILP-UM relaxation of an
// unrelated instance at makespan T (package rounding imports lp, so its
// model constructor cannot be called from here): load rows (1),
// assignment rows (2) and setup-dominance rows (4) over x_ij (p_ij ≤ T)
// and y_ik. It returns the load rows and each x variable with its
// processing time, for the clamps and RHS moves of a guess.
func relaxationLP(in *core.Instance, T float64) (p *Problem, loadRows []int, xVar []int, xP []float64) {
	p = &Problem{}
	x := make([][]int, in.M)
	y := make([][]int, in.M)
	for i := 0; i < in.M; i++ {
		x[i] = make([]int, in.N)
		y[i] = make([]int, in.K)
		for j := 0; j < in.N; j++ {
			x[i][j] = -1
			if core.IsFinite(in.P[i][j]) && in.P[i][j] <= T && core.IsFinite(in.S[i][in.Class[j]]) {
				x[i][j] = p.AddVar(0, 1)
				xVar = append(xVar, x[i][j])
				xP = append(xP, in.P[i][j])
			}
		}
		for k := 0; k < in.K; k++ {
			y[i][k] = -1
			if core.IsFinite(in.S[i][k]) {
				y[i][k] = p.AddVar(0, 1)
			}
		}
	}
	for i := 0; i < in.M; i++ {
		var terms []Term
		for j := 0; j < in.N; j++ {
			if x[i][j] >= 0 && in.P[i][j] > 0 {
				terms = append(terms, Term{x[i][j], in.P[i][j]})
			}
		}
		for k := 0; k < in.K; k++ {
			if y[i][k] >= 0 && in.S[i][k] > 0 {
				terms = append(terms, Term{y[i][k], in.S[i][k]})
			}
		}
		loadRows = append(loadRows, p.NumRows())
		p.AddConstraint(LE, T, terms...)
	}
	for j := 0; j < in.N; j++ {
		var terms []Term
		for i := 0; i < in.M; i++ {
			if x[i][j] >= 0 {
				terms = append(terms, Term{x[i][j], 1})
			}
		}
		p.AddConstraint(EQ, 1, terms...)
	}
	for i := 0; i < in.M; i++ {
		for j := 0; j < in.N; j++ {
			if x[i][j] >= 0 {
				p.AddConstraint(LE, 0, Term{x[i][j], 1}, Term{y[i][in.Class[j]], -1})
			}
		}
	}
	return p, loadRows, xVar, xP
}

// relaxationFixture is the rounding relaxation of an M=10/N=100/K=8
// unrelated instance, built at the greedy makespan and bisected warm over
// eight guesses like the dual search; the backend is left at the optimal
// basis of the smallest feasible guess, T, after a last re-solve there.
// verdicts and pivots record the ten solves.
type relaxationFixture struct {
	p        *Problem
	loadRows []int
	xVar     []int
	xP       []float64
	s        *solverState
	T        float64
	verdicts []Status
	pivots   int
}

// guess applies makespan guess T to be: clamp x_ij with p_ij > T, load
// RHS T.
func (fx *relaxationFixture) guess(be Backend, T float64) {
	for k, v := range fx.xVar {
		u := 1.0
		if fx.xP[k] > T {
			u = 0
		}
		be.SetVarUpper(v, u)
	}
	for _, r := range fx.loadRows {
		be.SetRHS(r, T)
	}
}

func newRelaxationFixture(tb testing.TB) *relaxationFixture {
	tb.Helper()
	in := gen.Unrelated(rand.New(rand.NewSource(1)), gen.Params{N: 100, M: 10, K: 8})
	g, err := baseline.Greedy(in)
	if err != nil {
		tb.Fatal(err)
	}
	hi := g.Makespan(in)
	fx := &relaxationFixture{}
	fx.p, fx.loadRows, fx.xVar, fx.xP = relaxationLP(in, hi)
	be, err := NewBackend(Sparse, fx.p, nil, WithPresolve(false))
	if err != nil {
		tb.Fatal(err)
	}
	solve := func(T float64) Status {
		fx.guess(be, T)
		sol, err := be.Solve()
		if err != nil {
			tb.Fatalf("relaxation at T=%g: %v", T, err)
		}
		fx.verdicts = append(fx.verdicts, sol.Status)
		fx.pivots += sol.Iterations
		return sol.Status
	}
	if solve(hi) != Optimal {
		tb.Fatal("relaxation infeasible at the greedy makespan")
	}
	lo := 0.0
	for it := 0; it < 8; it++ {
		T := (lo + hi) / 2
		if solve(T) == Optimal {
			hi = T
		} else {
			lo = T
		}
	}
	if solve(hi) != Optimal {
		tb.Fatalf("relaxation infeasible at its accepted guess %g", hi)
	}
	fx.s, fx.T = be.(*solverState), hi
	return fx
}

// TestLUFillOnRelaxationBasis bounds the factor of a real relaxation
// basis: right after a refactorization it may hold at most 1.5x the
// basis matrix's nonzeros.
func TestLUFillOnRelaxationBasis(t *testing.T) {
	fx := newRelaxationFixture(t)
	s := fx.s
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	lu := s.inv.(*luBasis)
	fac, bnz := lu.fac.nnz(), basisNNZ(s)
	if float64(fac) > 1.5*float64(bnz) {
		t.Errorf("factor holds %d nonzeros for a %d-nonzero basis (> 1.5x)", fac, bnz)
	}
	t.Logf("m=%d: basis %d nonzeros, LU factor %d", s.sf.m, bnz, fac)
}

// TestFTUpdateEffort bounds the sparse backend's update effort along the
// fixture's warm trajectory with machine-independent counts: the
// Forrest–Tomlin updates may store at most 40 nonzeros per pivot (the
// product-form etas they replaced stored ≈350, one dense B⁻¹a_q each),
// and the backend may refactorize at most twice per 100 pivots (the
// product-form file needed ≈6.6). The verdicts must be the ones the
// trajectory has always produced.
func TestFTUpdateEffort(t *testing.T) {
	fx := newRelaxationFixture(t)
	want := []Status{Optimal, Infeasible, Optimal, Infeasible, Infeasible, Optimal, Infeasible, Optimal, Optimal, Optimal}
	if fmt.Sprint(fx.verdicts) != fmt.Sprint(want) {
		t.Fatalf("trajectory verdicts %v, want %v", fx.verdicts, want)
	}
	st := fx.s.inv.(*luBasis).stats
	if st.updates == 0 {
		t.Fatal("the trajectory took no basis updates")
	}
	perPivot := float64(st.updateNNZ) / float64(st.updates)
	per100 := 100 * float64(st.refactors) / float64(fx.pivots)
	if perPivot > 40 {
		t.Errorf("updates stored %.1f nonzeros per pivot, want ≤ 40", perPivot)
	}
	if per100 > 2 {
		t.Errorf("%d refactorizations over %d pivots (%.2f per 100), want ≤ 2", st.refactors, fx.pivots, per100)
	}
	t.Logf("m=%d: %d pivots, %d updates storing %.1f nonzeros each, %d refactorizations (%.2f per 100 pivots)",
		fx.s.sf.m, fx.pivots, st.updates, perPivot, st.refactors, per100)
}

// TestWorkspaceReuseAllocs: rebuilding a backend on a reused Workspace —
// NewBackend, Warm, and a Solve that pivots — must not allocate the
// factor, update or refactorization storage again; only the backend's own
// few headers (state struct, basis and status slices) remain. Warm
// re-solves of one backend must not allocate at all.
func TestWorkspaceReuseAllocs(t *testing.T) {
	fx := newRelaxationFixture(t)
	b := fx.s.Basis()
	ws := NewWorkspace()
	pivots := 0
	round := func() {
		be, err := NewBackend(Sparse, fx.p, ws, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		fx.guess(be, 0.97*fx.T)
		if err := be.Warm(b); err != nil {
			t.Fatal(err)
		}
		sol, err := be.Solve()
		if err != nil {
			t.Fatal(err)
		}
		pivots = sol.Iterations
	}
	round()
	allocs := testing.AllocsPerRun(5, round)
	if pivots == 0 {
		t.Fatal("the re-solve took no pivots: the basis updates went unexercised")
	}
	if allocs > 4 {
		t.Errorf("rebuild on a reused Workspace allocated %v times per round, want ≤ 4", allocs)
	}
	t.Logf("%v allocations per rebuild+warm+solve (%d pivots)", allocs, pivots)

	// Re-solving one backend (presolve on, the default) around a cycle of
	// guesses allocates nothing once its buffers have grown.
	be, err := NewBackend(Sparse, fx.p, ws)
	if err != nil {
		t.Fatal(err)
	}
	cycle := []float64{fx.T, 0.97 * fx.T, fx.T, 0.98 * fx.T}
	k := 0
	resolve := func() {
		fx.guess(be, cycle[k%len(cycle)])
		k++
		if _, err := be.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*len(cycle); i++ {
		resolve()
	}
	if allocs := testing.AllocsPerRun(2*len(cycle), resolve); allocs != 0 {
		t.Errorf("warm re-solves allocated %v times each, want 0", allocs)
	}
}

// pivotLog wraps a basis representation and records the basis changes a
// solver drives through it — each update's leaving row and entering
// column — until the next factorization.
type pivotLog struct {
	basisRep
	col    int
	pivots []loggedPivot
	done   bool
}

type loggedPivot struct{ r, col int }

func (l *pivotLog) ftranColumn(sf *standardForm, j int, w []float64) {
	l.col = j
	l.basisRep.ftranColumn(sf, j, w)
}

func (l *pivotLog) update(r int, w []float64) {
	if !l.done {
		l.pivots = append(l.pivots, loggedPivot{r, l.col})
	}
	l.basisRep.update(r, w)
}

func (l *pivotLog) factor(sf *standardForm, cols, rowOf []int, ws *Workspace) error {
	l.done = true
	return l.basisRep.factor(sf, cols, rowOf, ws)
}

// BenchmarkBasisFactor prices the sparse basis kernel on the optimal basis
// of the M=10/N=100/K=8 rounding relaxation.
//
//   - refactor: one refactorization, one ftran of a nonbasic column and
//     one btranUnit per iteration, each reported on its own (refactor_ns,
//     ftran_ns, btran_ns) beside the sizes of the basis matrix and its LU
//     factor.
//   - update: the Forrest–Tomlin updates of a recorded pivot sequence —
//     the dual simplex's pivots from that basis towards a 3% tighter
//     makespan guess, up to its first refactorization — replayed on the
//     freshly factorized basis, reported per pivot (update_ns, the update
//     alone; update_nnz, the nonzeros it stored) with the sequence length.
func BenchmarkBasisFactor(b *testing.B) {
	fx := newRelaxationFixture(b)
	s := fx.s
	b.Run("refactor", func(b *testing.B) {
		var nonbasic []int
		for j := 0; j < s.sf.nv; j++ {
			if s.status[j] != basic {
				nonbasic = append(nonbasic, j)
			}
		}
		y := make([]float64, s.sf.m)
		var tRef, tF, tB time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := s.refactor(); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			s.ftranColumn(nonbasic[i%len(nonbasic)])
			t2 := time.Now()
			s.inv.btranUnit(i%s.sf.m, y)
			t3 := time.Now()
			tRef += t1.Sub(t0)
			tF += t2.Sub(t1)
			tB += t3.Sub(t2)
		}
		n := float64(b.N)
		lu := s.inv.(*luBasis)
		b.ReportMetric(float64(lu.fac.nnz()), "factor_nnz")
		b.ReportMetric(float64(basisNNZ(s)), "basis_nnz")
		b.ReportMetric(float64(tRef.Nanoseconds())/n, "refactor_ns")
		b.ReportMetric(float64(tF.Nanoseconds())/n, "ftran_ns")
		b.ReportMetric(float64(tB.Nanoseconds())/n, "btran_ns")
	})
	b.Run("update", func(b *testing.B) {
		// Record on a clone: factorize, then let a warm re-solve pivot.
		basis0 := append([]int(nil), s.basis...)
		c := s.Clone().(*solverState)
		if err := c.refactor(); err != nil {
			b.Fatal(err)
		}
		log := &pivotLog{basisRep: c.inv}
		c.inv = log
		fx.guess(c, 0.97*fx.T)
		if _, err := c.Solve(); err != nil {
			b.Fatal(err)
		}
		if len(log.pivots) == 0 {
			b.Fatal("the recorded re-solve took no pivots")
		}
		lu := s.inv.(*luBasis)
		v := make([]float64, s.sf.m)
		var tU time.Duration
		updates, nnz := 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(s.basis, basis0)
			if err := s.refactor(); err != nil {
				b.Fatal(err)
			}
			st := lu.stats
			b.StartTimer()
			for _, pv := range log.pivots {
				lu.ftranColumn(&s.sf, pv.col, v)
				t0 := time.Now()
				lu.update(pv.r, v)
				tU += time.Since(t0)
			}
			updates += lu.stats.updates - st.updates
			nnz += lu.stats.updateNNZ - st.updateNNZ
		}
		b.ReportMetric(float64(len(log.pivots)), "pivots")
		b.ReportMetric(float64(tU.Nanoseconds())/float64(updates), "update_ns")
		b.ReportMetric(float64(nnz)/float64(updates), "update_nnz")
	})
}
