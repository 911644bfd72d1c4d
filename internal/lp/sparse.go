package lp

import "math"

// standardForm is the canonical shape shared by all backends:
//
//	minimize    c·x
//	subject to  A x + I s = b
//	            0 ≤ x_j ≤ u_j,  0 ≤ s_r ≤ su_r
//
// GE rows are negated at build time so every row is LE (slack ub +∞) or EQ
// (slack ub 0); b may therefore be negative, which the bound-violation
// phase 1 handles without artificial variables. Structural columns are
// stored sparse (CSC); slack columns are implicit unit vectors.
type standardForm struct {
	m  int // rows
	nv int // structural variables
	n  int // total columns: nv + m (one slack per row)

	colPtr []int32 // nv+1 offsets into colRow/colVal
	colRow []int32
	colVal []float64

	obj     []float64 // length nv (slack cost is 0)
	ub      []float64 // length n: structural bounds then slack bounds
	rhs     []float64 // length m, current (sign-adjusted) right-hand sides
	rowSign []float64 // +1/-1 per row, applied to SetRHS updates

	objZero bool // every objective coefficient is 0 (a feasibility LP)
}

// build populates the standard form from a Problem, reusing ws buffers.
func (sf *standardForm) build(p *Problem, ws *Workspace) {
	m, nv := len(p.rows), len(p.obj)
	n := nv + m
	sf.m, sf.nv, sf.n = m, nv, n

	sf.obj = growF(&ws.sfObj, nv)
	copy(sf.obj, p.obj)
	sf.objZero = true
	for _, c := range sf.obj {
		if c != 0 {
			sf.objZero = false
			break
		}
	}
	sf.ub = growF(&ws.sfUB, n)
	copy(sf.ub, p.ub)
	sf.rhs = growF(&ws.sfRHS, m)
	sf.rowSign = growF(&ws.sfSign, m)

	// Column counts first, then prefix sums, then fill. The problem stores
	// coefficients as append-only triplets; a variable repeated within one
	// row simply yields duplicate (row, col) CSC entries, which is harmless
	// because every access path (scatterColumn, dotColumn) accumulates.
	cnt := growI32(&ws.sfCnt, nv+1)
	for i := range cnt {
		cnt[i] = 0
	}
	nnz := len(p.tRow)
	for _, v := range p.tVar {
		cnt[v+1]++
	}
	sf.colPtr = growI32(&ws.sfPtr, nv+1)
	sf.colPtr[0] = 0
	for j := 0; j < nv; j++ {
		sf.colPtr[j+1] = sf.colPtr[j] + cnt[j+1]
	}
	sf.colRow = growI32(&ws.sfRow, nnz)
	sf.colVal = growF(&ws.sfVal, nnz)
	next := growI32(&ws.sfNext, nv)
	copy(next, sf.colPtr[:nv])
	for r, row := range p.rows {
		sign := 1.0
		if row.sense == GE {
			sign = -1 // a·x ≥ b  ⇔  −a·x ≤ −b
		}
		sf.rowSign[r] = sign
		sf.rhs[r] = sign * row.rhs
		switch row.sense {
		case EQ:
			sf.ub[nv+r] = 0 // slack pinned: equality
		default:
			sf.ub[nv+r] = math.Inf(1)
		}
	}
	for t, r := range p.tRow {
		v := p.tVar[t]
		k := next[v]
		sf.colRow[k] = r
		sf.colVal[k] = sf.rowSign[r] * p.tCoef[t]
		next[v] = k + 1
	}
}

// copyFrom deep-copies src into sf using ws-backed storage, so the copy
// shares no mutable state with the source (Backend.Clone's substrate).
func (sf *standardForm) copyFrom(src *standardForm, ws *Workspace) {
	sf.m, sf.nv, sf.n, sf.objZero = src.m, src.nv, src.n, src.objZero
	sf.obj = growF(&ws.sfObj, len(src.obj))
	copy(sf.obj, src.obj)
	sf.ub = growF(&ws.sfUB, len(src.ub))
	copy(sf.ub, src.ub)
	sf.rhs = growF(&ws.sfRHS, len(src.rhs))
	copy(sf.rhs, src.rhs)
	sf.rowSign = growF(&ws.sfSign, len(src.rowSign))
	copy(sf.rowSign, src.rowSign)
	sf.colPtr = growI32(&ws.sfPtr, len(src.colPtr))
	copy(sf.colPtr, src.colPtr)
	sf.colRow = growI32(&ws.sfRow, len(src.colRow))
	copy(sf.colRow, src.colRow)
	sf.colVal = growF(&ws.sfVal, len(src.colVal))
	copy(sf.colVal, src.colVal)
}

// scatterColumn adds scale·(column j) into the dense vector v.
func (sf *standardForm) scatterColumn(j int, scale float64, v []float64) {
	if j >= sf.nv {
		v[j-sf.nv] += scale
		return
	}
	for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
		v[sf.colRow[k]] += scale * sf.colVal[k]
	}
}

// loadColumn overwrites the dense vector w with column j.
func (sf *standardForm) loadColumn(j int, w []float64) {
	clear(w)
	sf.scatterColumn(j, 1, w)
}

// dotColumn returns y·a_j for the dense vector y.
func (sf *standardForm) dotColumn(j int, y []float64) float64 {
	if j >= sf.nv {
		return y[j-sf.nv]
	}
	s := 0.0
	for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
		s += y[sf.colRow[k]] * sf.colVal[k]
	}
	return s
}

// colNNZ returns the stored nonzero count of column j (1 for slacks).
func (sf *standardForm) colNNZ(j int) int {
	if j >= sf.nv {
		return 1
	}
	return int(sf.colPtr[j+1] - sf.colPtr[j])
}

// objAt returns the objective coefficient of column j (0 for slacks).
func (sf *standardForm) objAt(j int) float64 {
	if j >= sf.nv {
		return 0
	}
	return sf.obj[j]
}

// basisRep abstracts the representation of the basis inverse B⁻¹. The
// solver core drives it through these operations; the dense backend keeps
// an explicit m×m inverse, the sparse backend an LU factorization kept
// current by Forrest–Tomlin updates.
type basisRep interface {
	// reset reinstalls the identity (the all-slack basis).
	reset(m int)
	// factor rebuilds the representation from scratch for the basis whose
	// columns are cols, and writes the row each cols[i] is now basic in to
	// rowOf[i]. On error (a singular basis) the representation is left
	// as it was.
	factor(sf *standardForm, cols, rowOf []int, ws *Workspace) error
	// ftran overwrites v with B⁻¹·v.
	ftran(v []float64)
	// ftranColumn overwrites w with B⁻¹·a_j, column j of sf, for a column
	// that may enter the basis next: the representation may keep
	// intermediate results for update.
	ftranColumn(sf *standardForm, j int, w []float64)
	// btran overwrites y with yᵀ·B⁻¹ (y is treated as a row vector).
	btran(y []float64)
	// btranUnit overwrites y with row r of B⁻¹ (eᵣᵀ·B⁻¹).
	btranUnit(r int, y []float64)
	// update records a basis change at row r whose entering column, in
	// current basis coordinates, is w (so w[r] is the pivot element); w
	// must be what the latest ftranColumn made of the entering column.
	update(r int, w []float64)
	// shouldRefactor reports that the representation must be rebuilt
	// before its next use (an update lost accuracy) or has grown enough
	// that a refactorization would pay off.
	shouldRefactor() bool
	// clone returns an independent deep copy backed by ws: applying
	// updates to either copy never perturbs the other (Backend.Clone's
	// substrate).
	clone(ws *Workspace) basisRep
}

// etaDropTol drops negligible eta entries; values this small are far below
// the solver's pivot tolerance and only bloat the file.
const etaDropTol = 1e-13

// etaFile is a product-form inverse: E_K···E_1 where each eta matrix E is
// the identity with column pivRow replaced by the stored entries. ftran
// applies etas oldest→newest, btran newest→oldest. It is the IPM
// crossover's incremental independence test (and the tests' product-form
// reference representation).
type etaFile struct {
	m      int
	pivRow []int32
	start  []int32 // len(pivRow)+1 offsets into idx/val
	idx    []int32
	val    []float64
	nnz    int
}

func (e *etaFile) reset(m int) {
	e.m = m
	e.pivRow = e.pivRow[:0]
	e.start = append(e.start[:0], 0)
	e.idx = e.idx[:0]
	e.val = e.val[:0]
	e.nnz = 0
}

func (e *etaFile) copyFrom(src *etaFile) {
	e.m, e.nnz = src.m, src.nnz
	e.pivRow = append(e.pivRow[:0], src.pivRow...)
	e.start = append(e.start[:0], src.start...)
	e.idx = append(e.idx[:0], src.idx...)
	e.val = append(e.val[:0], src.val...)
}

func (e *etaFile) ftran(v []float64) {
	for k := 0; k < len(e.pivRow); k++ {
		r := e.pivRow[k]
		t := v[r]
		if t == 0 {
			continue
		}
		v[r] = 0
		for q := e.start[k]; q < e.start[k+1]; q++ {
			v[e.idx[q]] += e.val[q] * t
		}
	}
}

func (e *etaFile) btran(y []float64) {
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		s := 0.0
		for q := e.start[k]; q < e.start[k+1]; q++ {
			s += y[e.idx[q]] * e.val[q]
		}
		y[e.pivRow[k]] = s
	}
}

func (e *etaFile) update(r int, w []float64) {
	inv := 1 / w[r]
	e.pivRow = append(e.pivRow, int32(r))
	for i, wi := range w {
		var v float64
		if i == r {
			v = inv
		} else if wi != 0 {
			v = -wi * inv
		} else {
			continue
		}
		if math.Abs(v) < etaDropTol {
			continue
		}
		e.idx = append(e.idx, int32(i))
		e.val = append(e.val, v)
		e.nnz++
	}
	e.start = append(e.start, int32(len(e.idx)))
}

// The sparse backend refactorizes after luMaxUpdates Forrest–Tomlin
// updates, or sooner once the updated factor holds luGrowthRatio times
// the nonzeros it had when factorized (the guard against an unusually
// dense run of spikes). Each update stores its spike column and a row eta,
// and later spikes pick up one entry from most earlier row etas, so an
// update's storage grows with the chain: on the M=10/N=100/K=8 relaxation
// (m=1110, factor ≈2.5k nonzeros) from ≈30 nonzeros right after a
// refactorization to ≈60 at 55 updates, ≈39 on average. Much longer
// chains make every solve pay for that growth, much shorter ones pay for
// refactorizations instead.
const (
	luMaxUpdates  = 55
	luGrowthRatio = 2
)

// luStats counts a luBasis's effort since the Workspace was created.
type luStats struct {
	updates   int // Forrest–Tomlin updates
	updateNNZ int // nonzeros those updates stored (spike columns + row etas)
	refactors int // successful factorizations
}

// luBasis is the sparse backend's basis representation: a sparse LU
// factorization of the basis, kept current by Forrest–Tomlin updates
// (luFactor.update) until a refactorization. It lives in the Workspace,
// so a backend rebuilt on a reused Workspace reuses the factor and update
// storage. A failed refactorization leaves the factor as it was.
type luBasis struct {
	fac    luFactor
	sp     spikeBuf // the spike of the latest ftranColumn
	spiked bool     // sp is unconsumed by an update
	sc     ftScratch
	stale  bool // an update failed its stability check
	stats  luStats
}

// sparseRep returns ws's luBasis, reset to the identity for m rows.
func (ws *Workspace) sparseRep(m int) *luBasis {
	ws.lu.reset(m)
	return &ws.lu
}

// size readies the update buffers for m rows.
func (b *luBasis) size(m int) {
	b.sp.size(m)
	b.sc.z = growF(&b.sc.z, m)
	for i := range b.sc.z {
		b.sc.z[i] = 0
	}
	b.spiked, b.stale = false, false
}

func (b *luBasis) reset(m int) {
	b.fac.identity(m)
	b.size(m)
}

func (b *luBasis) factor(sf *standardForm, cols, rowOf []int, ws *Workspace) error {
	if err := b.fac.factorize(sf, cols, rowOf, &ws.luSc); err != nil {
		return err
	}
	b.size(sf.m)
	b.stats.refactors++
	return nil
}

func (b *luBasis) ftran(v []float64) { b.fac.ftran(v, nil) }

func (b *luBasis) ftranColumn(sf *standardForm, j int, w []float64) {
	clear(w)
	sp := &b.sp
	sp.begin()
	if j >= sf.nv {
		w[j-sf.nv] = 1
		sp.note(int32(j - sf.nv))
	} else {
		for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
			w[sf.colRow[k]] += sf.colVal[k]
			sp.note(sf.colRow[k])
		}
	}
	b.fac.ftran(w, sp)
	b.spiked = true
}

func (b *luBasis) btran(y []float64) { b.fac.btran(y) }

func (b *luBasis) btranUnit(r int, y []float64) {
	for i := range y {
		y[i] = 0
	}
	y[r] = 1
	b.btran(y)
}

func (b *luBasis) update(r int, w []float64) {
	if !b.spiked {
		panic("lp: basis update without the entering column's ftranColumn")
	}
	b.spiked = false
	f := &b.fac
	nr := len(f.R.idx)
	if !f.update(int32(r), &b.sp, w[r], &b.sc) {
		b.stale = true
	}
	b.stats.updates++
	b.stats.updateNNZ += len(f.R.idx) - nr + int(f.uc.n[r])
}

func (b *luBasis) shouldRefactor() bool {
	f := &b.fac
	return b.stale || f.updates >= luMaxUpdates || f.nnz() > luGrowthRatio*f.nnz0
}

func (b *luBasis) clone(ws *Workspace) basisRep {
	c := &ws.lu
	c.fac.copyFrom(&b.fac)
	c.size(b.fac.m)
	c.stale = b.stale
	return c
}
