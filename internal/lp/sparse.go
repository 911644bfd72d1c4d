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
// an explicit m×m inverse, the sparse backend an LU factorization with
// product-form update etas on top.
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
	// btran overwrites y with yᵀ·B⁻¹ (y is treated as a row vector).
	btran(y []float64)
	// btranUnit overwrites y with row r of B⁻¹ (eᵣᵀ·B⁻¹).
	btranUnit(r int, y []float64)
	// update records a basis change at row r whose entering column, in
	// current basis coordinates, is w (so w[r] is the pivot element).
	update(r int, w []float64)
	// shouldRefactor reports that the representation has grown stale
	// and a refactorization would pay off.
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
// applies etas oldest→newest, btran newest→oldest. It is the update file
// of the sparse backend's luBasis, and the IPM crossover's incremental
// independence test.
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

// luRefactorRatio is the sparse backend's refactorization trigger: it
// refactorizes once the update etas hold this many times the factor's
// nonzeros. Every ftran and btran pays for the factor and the etas, and
// a refactorization costs a few dozen of them, so eta work saved balances
// refactorizations paid at a small multiple: on the online-stream bases
// (≈370 eta nonzeros per pivot) 1–4 measured alike and 8 clearly slower.
const luRefactorRatio = 2

// luBasis is the sparse backend's basis representation: a sparse LU
// factorization of the basis at the last refactorization, with the
// product-form etas of every pivot since, B⁻¹ = E_k···E_1·U⁻¹L⁻¹. It lives
// in the Workspace, so a backend rebuilt on a reused Workspace reuses the
// factor and eta storage. fac[cur] is the live factor; a refactorization
// factors into the other and swaps only on success.
type luBasis struct {
	fac [2]luFactor
	cur int
	eta etaFile
}

// sparseRep returns ws's luBasis, reset to the identity for m rows.
func (ws *Workspace) sparseRep(m int) *luBasis {
	ws.lu.reset(m)
	return &ws.lu
}

func (b *luBasis) reset(m int) {
	b.fac[b.cur].identity(m)
	b.eta.reset(m)
}

func (b *luBasis) factor(sf *standardForm, cols, rowOf []int, ws *Workspace) error {
	if err := b.fac[1-b.cur].factorize(sf, cols, rowOf, &ws.luSc); err != nil {
		return err
	}
	b.cur = 1 - b.cur
	b.eta.reset(sf.m)
	return nil
}

func (b *luBasis) ftran(v []float64) {
	b.fac[b.cur].ftran(v)
	b.eta.ftran(v)
}

func (b *luBasis) btran(y []float64) {
	b.eta.btran(y)
	b.fac[b.cur].btran(y)
}

func (b *luBasis) btranUnit(r int, y []float64) {
	for i := range y {
		y[i] = 0
	}
	y[r] = 1
	b.btran(y)
}

func (b *luBasis) update(r int, w []float64) { b.eta.update(r, w) }

func (b *luBasis) shouldRefactor() bool {
	return b.eta.nnz > luRefactorRatio*b.fac[b.cur].nnz()
}

func (b *luBasis) clone(ws *Workspace) basisRep {
	c := &ws.lu
	c.cur = 0
	c.fac[0].copyFrom(&b.fac[b.cur])
	c.eta.copyFrom(&b.eta)
	return c
}
