package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// productForm is the sparse backend's basis representation before the LU,
// kept as the differential reference for it: a product-form eta file built
// by replaying one ftran + update per basic column, either in the
// Markowitz-style dynamic order (row singletons first, then the sparsest
// column, pivoting on the live row hit by the fewest live columns within
// refactorPivRel of the best magnitude) or, with static set, in the
// static sparsest-column-first order with a full-row pivot scan that
// preceded it.
type productForm struct {
	etaFile
	static bool
}

func (p *productForm) factor(sf *standardForm, cols, rowOf []int, _ *Workspace) error {
	var e etaFile
	e.reset(sf.m)
	var err error
	if p.static {
		err = replayStaticOrder(sf, cols, rowOf, &e)
	} else {
		err = replayMarkowitz(sf, cols, rowOf, &e)
	}
	if err == nil {
		p.etaFile = e
	}
	return err
}

func (p *productForm) ftranColumn(sf *standardForm, j int, w []float64) {
	sf.loadColumn(j, w)
	p.ftran(w)
}

func (p *productForm) btranUnit(r int, y []float64) {
	for i := range y {
		y[i] = 0
	}
	y[r] = 1
	p.btran(y)
}

func (p *productForm) shouldRefactor() bool { return false }

func (p *productForm) clone(*Workspace) basisRep {
	c := &productForm{static: p.static}
	c.etaFile.copyFrom(&p.etaFile)
	return c
}

// replayStaticOrder places the columns sparsest first, each on the unused
// row of its largest ftran'd magnitude.
func replayStaticOrder(sf *standardForm, cols, rowOf []int, e *etaFile) error {
	m := sf.m
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return sf.colNNZ(cols[order[a]]) < sf.colNNZ(cols[order[b]])
	})
	marks := make([]bool, m)
	w := make([]float64, m)
	for _, i := range order {
		j := cols[i]
		for k := range w {
			w[k] = 0
		}
		sf.scatterColumn(j, 1, w)
		e.ftran(w)
		best, bestAbs := -1, 1e-10
		for r := 0; r < m; r++ {
			if !marks[r] {
				if a := math.Abs(w[r]); a > bestAbs {
					best, bestAbs = r, a
				}
			}
		}
		if best < 0 {
			return fmt.Errorf("lp: singular basis (column %d)", j)
		}
		marks[best] = true
		rowOf[i] = best
		e.update(best, w)
	}
	return nil
}

// replayMarkowitz is the dynamic-order replay. Fill in a product-form
// inverse is created exactly when a placed column carries entries in the
// pivot rows of earlier placements, so it keeps pivot rows out of live
// columns' patterns: whenever some live row is hit by exactly one unplaced
// column, that column is placed with that row as preferred pivot (a chain
// of these is a permuted triangle with zero fill); otherwise the sparsest
// remaining column enters and pivots on the live row hit by the fewest
// live columns among those within refactorPivRel of the largest
// magnitude.
func replayMarkowitz(sf *standardForm, cols, rowOf []int, e *etaFile) error {
	m := sf.m
	// cnt[i] = stored nonzeros of column cols[i]; −1 marks placed.
	cnt := make([]int, m)
	maxCnt, nnz := 0, 0
	for i, j := range cols {
		c := sf.colNNZ(j)
		cnt[i] = c
		nnz += c
		if c > maxCnt {
			maxCnt = c
		}
	}
	// Row → column-position CSR over the basic pattern.
	rowPtr := make([]int32, m+1)
	for _, j := range cols {
		if j >= sf.nv {
			rowPtr[j-sf.nv+1]++
			continue
		}
		for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
			rowPtr[sf.colRow[k]+1]++
		}
	}
	for r := 0; r < m; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	rowCol := make([]int32, nnz)
	fill := append([]int32(nil), rowPtr[:m]...)
	for i, j := range cols {
		if j >= sf.nv {
			r := j - sf.nv
			rowCol[fill[r]] = int32(i)
			fill[r]++
			continue
		}
		for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
			r := sf.colRow[k]
			rowCol[fill[r]] = int32(i)
			fill[r]++
		}
	}
	// Live-column count per row; −1 marks retired.
	rc := make([]int, m)
	var stack []int
	for r := 0; r < m; r++ {
		rc[r] = int(rowPtr[r+1] - rowPtr[r])
		if rc[r] == 1 {
			stack = append(stack, r)
		}
	}
	// Sparsest-first fallback order: count buckets of the columns.
	bhead := make([]int, maxCnt+1)
	for c := range bhead {
		bhead[c] = -1
	}
	bnext := make([]int, m)
	for i := m - 1; i >= 0; i-- {
		c := cnt[i]
		bnext[i] = bhead[c]
		bhead[c] = i
	}
	// The unpivoted-row set for the numeric pivot scan (swap-remove).
	unrows := make([]int, m)
	rowIdx := make([]int, m)
	for r := 0; r < m; r++ {
		unrows[r] = r
		rowIdx[r] = r
	}
	nun := m
	dropRow := func(r int32) {
		if rc[r] > 0 {
			if rc[r]--; rc[r] == 1 {
				stack = append(stack, int(r))
			}
		}
	}

	w := make([]float64, m)
	cur := 0
	for placed := 0; placed < m; placed++ {
		i := -1
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rc[r] != 1 {
				continue
			}
			for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
				if ci := int(rowCol[k]); cnt[ci] >= 0 {
					i = ci
					break
				}
			}
			if i >= 0 {
				break
			}
		}
		if i < 0 {
			for {
				for bhead[cur] >= 0 && cnt[bhead[cur]] < 0 {
					bhead[cur] = bnext[bhead[cur]]
				}
				if bhead[cur] >= 0 {
					break
				}
				cur++
			}
			i = bhead[cur]
			bhead[cur] = bnext[i]
		}
		j := cols[i]
		if j >= sf.nv {
			dropRow(int32(j - sf.nv))
		} else {
			for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
				dropRow(sf.colRow[k])
			}
		}
		cnt[i] = -1
		for k := range w {
			w[k] = 0
		}
		sf.scatterColumn(j, 1, w)
		e.ftran(w)
		maxAbs := 0.0
		for t := 0; t < nun; t++ {
			if a := math.Abs(w[unrows[t]]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs <= 1e-10 {
			return fmt.Errorf("lp: singular basis (column %d)", j)
		}
		floor := math.Max(refactorPivRel*maxAbs, 1e-10)
		best, bestAbs, bestRC := -1, 0.0, 0
		for t := 0; t < nun; t++ {
			r := unrows[t]
			a := math.Abs(w[r])
			if a < floor {
				continue
			}
			if c := rc[r]; best < 0 || c < bestRC || (c == bestRC && a > bestAbs) {
				best, bestAbs, bestRC = r, a, c
			}
		}
		rowOf[i] = best
		e.update(best, w)
		nun--
		pos := rowIdx[best]
		last := unrows[nun]
		unrows[pos] = last
		rowIdx[last] = pos
		rc[best] = -1
	}
	return nil
}

// basisNNZ counts the nonzeros of the current basis matrix (slacks count
// one each).
func basisNNZ(s *solverState) int {
	n := 0
	for _, j := range s.basis {
		n += s.sf.colNNZ(j)
	}
	return n
}

// randomSchedShapeSpec builds a scheduling-relaxation-shaped feasibility LP
// (the refactorization's production workload): machine load rows, job
// assignment rows, setup-dominance rows, with random eligibility gaps.
func randomSchedShapeSpec(rng *rand.Rand) *problemSpec {
	m := 3 + rng.Intn(4)
	n := 8 + rng.Intn(12)
	K := 2 + rng.Intn(3)
	class := make([]int, n)
	for j := range class {
		class[j] = rng.Intn(K)
	}
	ps := &problemSpec{}
	x := make([][]int, m)
	y := make([][]int, m)
	for i := 0; i < m; i++ {
		x[i] = make([]int, n)
		y[i] = make([]int, K)
		for j := 0; j < n; j++ {
			x[i][j] = -1
			if i == j%m || rng.Float64() < 0.7 { // every job runs somewhere
				ps.obj = append(ps.obj, 0)
				ps.ub = append(ps.ub, 1)
				x[i][j] = len(ps.obj) - 1
			}
		}
		for k := 0; k < K; k++ {
			ps.obj = append(ps.obj, 0)
			ps.ub = append(ps.ub, 1)
			y[i][k] = len(ps.obj) - 1
		}
	}
	T := 2 + float64(n)/float64(m)*2
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if x[i][j] >= 0 {
				terms = append(terms, Term{x[i][j], 0.5 + rng.Float64()*2})
			}
		}
		for k := 0; k < K; k++ {
			terms = append(terms, Term{y[i][k], 0.2 + rng.Float64()})
		}
		ps.rows = append(ps.rows, specRow{LE, T, terms})
	}
	for j := 0; j < n; j++ {
		var terms []Term
		for i := 0; i < m; i++ {
			if x[i][j] >= 0 {
				terms = append(terms, Term{x[i][j], 1})
			}
		}
		ps.rows = append(ps.rows, specRow{EQ, 1, terms})
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if x[i][j] >= 0 {
				ps.rows = append(ps.rows, specRow{LE, 0, []Term{{x[i][j], 1}, {y[i][class[j]], -1}}})
			}
		}
	}
	return ps
}

// TestRefactorMarkowitzDifferential pins the LU refactorization against
// the product-form replays it replaced on a scheduling-shaped corpus: all
// three must factorize the same bases to the same verdicts and
// objectives; the LU must not store more nonzeros than the dynamic
// Markowitz replay's eta file, and that replay no more than the static
// sparsest-first one (the ordering it replaced in turn).
func TestRefactorMarkowitzDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	totalLU, totalNew, totalOld, totalBasis := 0, 0, 0, 0
	solved := 0
	for trial := 0; trial < 40; trial++ {
		ps := randomSchedShapeSpec(rng)
		// White-box: the clones are downcast to solverState to compare
		// factor sizes, so the presolve wrapper is off.
		be, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatalf("trial %d: NewBackend: %v", trial, err)
		}
		ref, err := be.Solve()
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if ref.Status != Optimal {
			continue // rare over-tight load rows: nothing to refactorize against
		}
		solved++
		refObj := ref.Objective
		lu := be.Clone().(*solverState)
		a := be.Clone().(*solverState)
		b := be.Clone().(*solverState)
		a.inv = &productForm{}
		b.inv = &productForm{static: true}
		for name, s := range map[string]*solverState{"lu": lu, "dynamic": a, "static": b} {
			if err := s.refactor(); err != nil {
				t.Fatalf("trial %d: %s refactor: %v", trial, name, err)
			}
		}
		totalBasis += basisNNZ(lu)
		totalLU += lu.inv.(*luBasis).fac.nnz()
		totalNew += a.inv.(*productForm).nnz
		totalOld += b.inv.(*productForm).nnz
		// All factorizations represent the same basis: re-solving from
		// them must reproduce the verdict and objective of the original.
		for name, s := range map[string]*solverState{"lu": lu, "dynamic": a, "static": b} {
			sol, err := s.Solve()
			if err != nil {
				t.Fatalf("trial %d: %s re-solve: %v", trial, name, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d: %s re-solve status %v, want optimal", trial, name, sol.Status)
			}
			if math.Abs(sol.Objective-refObj) > 1e-6 {
				t.Fatalf("trial %d: %s re-solve objective %v, want %v", trial, name, sol.Objective, refObj)
			}
		}
	}
	if solved < 20 {
		t.Fatalf("corpus degenerated: only %d/40 instances optimal", solved)
	}
	if totalLU > totalNew {
		t.Errorf("LU factor holds more nonzeros than the product-form replay: %d > %d", totalLU, totalNew)
	}
	if totalNew > totalOld {
		t.Errorf("dynamic ordering produced more fill than the static sort: %d > %d", totalNew, totalOld)
	}
	t.Logf("nonzeros across %d factorizations: basis %d, LU %d, product form dynamic %d, static %d",
		solved, totalBasis, totalLU, totalNew, totalOld)
}

// TestRefactorPreservesWarmVerdicts drives a shrinking-RHS warm trajectory
// (the rounding search's access pattern, which is what forces periodic
// refactorization) and checks the sparse backend agrees with the dense one
// at every step.
func TestRefactorPreservesWarmVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		ps := randomSchedShapeSpec(rng)
		sp, err := NewBackend(Sparse, ps.build(), nil)
		if err != nil {
			t.Fatalf("NewBackend sparse: %v", err)
		}
		de, err := NewBackend(Dense, ps.build(), nil)
		if err != nil {
			t.Fatalf("NewBackend dense: %v", err)
		}
		// Load rows are the first m rows; shrink them in steps.
		m := 3
		for i, r := range ps.rows {
			if r.sense != LE || len(r.terms) < 3 {
				m = i
				break
			}
		}
		base := ps.rows[0].rhs
		for step := 0; step < 12; step++ {
			T := base * (1 - 0.06*float64(step))
			for r := 0; r < m; r++ {
				sp.SetRHS(r, T)
				de.SetRHS(r, T)
			}
			ss, err := sp.Solve()
			if err != nil {
				t.Fatalf("trial %d step %d: sparse: %v", trial, step, err)
			}
			ds, err := de.Solve()
			if err != nil {
				t.Fatalf("trial %d step %d: dense: %v", trial, step, err)
			}
			if ss.Status != ds.Status {
				t.Fatalf("trial %d step %d: sparse %v vs dense %v", trial, step, ss.Status, ds.Status)
			}
			if ss.Status != Optimal {
				break
			}
		}
	}
}
