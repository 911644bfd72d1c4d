package lp

import (
	"fmt"
	"math"
)

// refactorPivRel is the relative pivot threshold of the LU factorization
// (standard Markowitz threshold pivoting): a bump pivot is acceptable when
// its magnitude is within this factor of the largest in its column.
const refactorPivRel = 0.1

// luPivAbs is the absolute pivot floor of the LU factorization: a basis
// whose every remaining candidate pivot is this small is singular.
const luPivAbs = 1e-10

// luSearchLimit bounds the Markowitz pivot search in the bump: once a
// candidate is known, at most this many columns and rows are examined
// before the cheapest one found is taken.
const luSearchLimit = 4

// luFactor is a sparse LU factorization B = L·U of a basis matrix whose
// column in position r is the column pivoted in row r (so the pivot of
// step t sits on the diagonal at position order[t], and positions are row
// indices — an ftran result needs no permutation):
//
//   - L⁻¹ is a sequence of column etas in pivot order. The eta of pivot t
//     holds the multipliers l_i of the rows i pivoted after t; applying it
//     subtracts l_i·v[order[t]] from v[i].
//   - U is upper triangular in pivot order. Its off-diagonal entries are
//     stored twice: by column (column t holds U[order[s], order[t]] for
//     s < t), which ftran walks backwards, and by row (row t holds
//     U[order[t], order[s]] for s > t), which btran walks forwards — so
//     both skip the zero entries of their vector. dinv[t] is the inverse
//     of pivot t. A step with a unit pivot and no entries in the stored
//     column (row) leaves ftran (btran) unchanged — in ftran every slack
//     step is one — so each walk visits only the steps listed in fSteps
//     (bSteps).
//
// ftran and btran therefore cost at most O(m + nnz(L) + nnz(U)), and
// on a mostly-slack basis far less.
type luFactor struct {
	m     int
	order []int32   // order[t] is the row (= basis position) of pivot t
	dinv  []float64 // dinv[t] is 1 / the value of pivot t

	lPiv   []int32 // pivot row of each nonempty L eta, in pivot order
	lStart []int32 // len(lPiv)+1 offsets into lIdx/lVal
	lIdx   []int32
	lVal   []float64

	uStart []int32 // m+1 offsets into uIdx/uVal, one column per pivot step
	uIdx   []int32
	uVal   []float64

	urStart []int32 // m+1 offsets into urIdx/urVal, one row per pivot step
	urIdx   []int32
	urVal   []float64

	fSteps []int32 // steps ftran must visit, last pivot first
	bSteps []int32 // steps btran must visit, first pivot first
}

// nnz counts the stored factor entries, diagonal included and U once, so
// it compares directly with the nonzeros of the basis matrix it
// factorizes.
func (f *luFactor) nnz() int { return f.m + len(f.lIdx) + len(f.uIdx) }

// identity installs the factorization of the all-slack basis.
func (f *luFactor) identity(m int) {
	f.m = m
	f.order = growI32(&f.order, m)
	f.dinv = growF(&f.dinv, m)
	for r := 0; r < m; r++ {
		f.order[r] = int32(r)
		f.dinv[r] = 1
	}
	f.lPiv = f.lPiv[:0]
	f.lStart = append(f.lStart[:0], 0)
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	f.uStart = growI32(&f.uStart, m+1)
	f.urStart = growI32(&f.urStart, m+1)
	for t := range f.uStart {
		f.uStart[t] = 0
		f.urStart[t] = 0
	}
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.urIdx, f.urVal = f.urIdx[:0], f.urVal[:0]
	f.fSteps, f.bSteps = f.fSteps[:0], f.bSteps[:0]
}

// copyFrom deep-copies src into f, reusing f's storage.
func (f *luFactor) copyFrom(src *luFactor) {
	f.m = src.m
	f.order = append(f.order[:0], src.order...)
	f.dinv = append(f.dinv[:0], src.dinv...)
	f.lPiv = append(f.lPiv[:0], src.lPiv...)
	f.lStart = append(f.lStart[:0], src.lStart...)
	f.lIdx = append(f.lIdx[:0], src.lIdx...)
	f.lVal = append(f.lVal[:0], src.lVal...)
	f.uStart = append(f.uStart[:0], src.uStart...)
	f.uIdx = append(f.uIdx[:0], src.uIdx...)
	f.uVal = append(f.uVal[:0], src.uVal...)
	f.urStart = append(f.urStart[:0], src.urStart...)
	f.urIdx = append(f.urIdx[:0], src.urIdx...)
	f.urVal = append(f.urVal[:0], src.urVal...)
	f.fSteps = append(f.fSteps[:0], src.fSteps...)
	f.bSteps = append(f.bSteps[:0], src.bSteps...)
}

// ftran overwrites v with B⁻¹·v: forward through the L etas, then back
// substitution through U, both skipping zero entries of v.
func (f *luFactor) ftran(v []float64) {
	for k, r := range f.lPiv {
		t := v[r]
		if t == 0 {
			continue
		}
		for q := f.lStart[k]; q < f.lStart[k+1]; q++ {
			v[f.lIdx[q]] -= f.lVal[q] * t
		}
	}
	for _, t := range f.fSteps {
		r := f.order[t]
		x := v[r]
		if x == 0 {
			continue
		}
		x *= f.dinv[t]
		v[r] = x
		for q := f.uStart[t]; q < f.uStart[t+1]; q++ {
			v[f.uIdx[q]] -= f.uVal[q] * x
		}
	}
}

// btran overwrites y with yᵀ·B⁻¹: forward substitution through Uᵀ row by
// row, skipping zero entries of y, then the L etas transposed (a dot
// product each), newest first.
func (f *luFactor) btran(y []float64) {
	for _, t := range f.bSteps {
		r := f.order[t]
		x := y[r]
		if x == 0 {
			continue
		}
		x *= f.dinv[t]
		y[r] = x
		for q := f.urStart[t]; q < f.urStart[t+1]; q++ {
			y[f.urIdx[q]] -= f.urVal[q] * x
		}
	}
	for k := len(f.lPiv) - 1; k >= 0; k-- {
		s := 0.0
		for q := f.lStart[k]; q < f.lStart[k+1]; q++ {
			s += f.lVal[q] * y[f.lIdx[q]]
		}
		y[f.lPiv[k]] -= s
	}
}

// luEnt is one entry of an active bump column: local row and value.
type luEnt struct {
	i int32
	v float64
}

// luScratch is the factorization's working storage, kept in the Workspace
// so refactorizing allocates nothing once it has grown.
type luScratch struct {
	// The basis matrix as merged CSC (by index into the column list; CSC
	// duplicates summed) and its CSR transpose.
	cPtr, cRow []int32
	cVal       []float64
	rPtr, rCol []int32
	rVal       []float64
	mark       []int32 // per row: -1, or a position in the column being merged

	colCnt, rowCnt []int32 // active entries per column / row
	colT, rowT     []int32 // pivot step of a column / row, -1 while active
	cStack, rStack []int32 // column / row singleton candidates

	// U entries by row, before the transpose into pivot-ordered columns:
	// row, column-list index, value.
	uR, uC []int32
	uV     []float64

	// The bump: active columns with values, active rows as patterns, both
	// in local indices, with the maps back to global ones.
	bCols        lines[luEnt]
	bRows        lines[int32]
	bColG, bRowG []int32
	bLoc         []int32 // global row → local row
	bMark        []int32 // per local row: -1, or a position in a column
	colMax       []float64
	colB, rowB   countBuckets
	pRow         []luEnt // the pivot row's U entries (local column, value)
	pCol         []luEnt // the pivot column's multipliers (local row, l)
}

// factorize computes the LU factorization of the basis whose columns are
// cols (standard-form column indices, one per row) into f, and writes the
// row each cols[i] was pivoted in to rowOf[i]. Slack columns, column
// singletons and row singletons are pivoted first, in O(nnz) and without
// numeric updates; Markowitz threshold pivoting (refactorPivRel of the
// column maximum) then factors the remaining bump.
// A singular basis returns an error; f is then invalid and rowOf
// unspecified.
func (f *luFactor) factorize(sf *standardForm, cols, rowOf []int, sc *luScratch) error {
	m := sf.m
	f.m = m
	f.order = f.order[:0]
	f.dinv = f.dinv[:0]
	f.lPiv = f.lPiv[:0]
	f.lStart = append(f.lStart[:0], 0)
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	sc.uR, sc.uC, sc.uV = sc.uR[:0], sc.uC[:0], sc.uV[:0]
	sc.load(sf, cols)

	colCnt, rowCnt := sc.colCnt, sc.rowCnt
	colT, rowT := sc.colT, sc.rowT
	cStack, rStack := sc.cStack[:0], sc.rStack[:0]
	for c := int32(0); c < int32(m); c++ {
		switch colCnt[c] {
		case 0:
			return fmt.Errorf("lp: singular basis (column %d is empty)", cols[c])
		case 1:
			cStack = append(cStack, c)
		}
	}
	for r := int32(0); r < int32(m); r++ {
		switch rowCnt[r] {
		case 0:
			return fmt.Errorf("lp: singular basis (row %d is empty)", r)
		case 1:
			rStack = append(rStack, r)
		}
	}

	// Triangular phase: column singletons (every slack among them) put
	// their row's other entries into U; row singletons put their column's
	// other entries into an L eta. Neither touches any other value.
	for {
		if n := len(cStack); n > 0 {
			c := cStack[n-1]
			cStack = cStack[:n-1]
			if colT[c] >= 0 {
				continue
			}
			r, d := int32(-1), 0.0
			for q := sc.cPtr[c]; q < sc.cPtr[c+1]; q++ {
				if rowT[sc.cRow[q]] < 0 {
					r, d = sc.cRow[q], sc.cVal[q]
					break
				}
			}
			if r < 0 || math.Abs(d) <= luPivAbs {
				return fmt.Errorf("lp: singular basis (column %d)", cols[c])
			}
			f.pivot(sc, r, c, d)
			for q := sc.rPtr[r]; q < sc.rPtr[r+1]; q++ {
				c2 := sc.rCol[q]
				if colT[c2] >= 0 {
					continue
				}
				sc.uR = append(sc.uR, r)
				sc.uC = append(sc.uC, c2)
				sc.uV = append(sc.uV, sc.rVal[q])
				if colCnt[c2]--; colCnt[c2] == 1 {
					cStack = append(cStack, c2)
				} else if colCnt[c2] == 0 {
					return fmt.Errorf("lp: singular basis (column %d)", cols[c2])
				}
			}
			continue
		}
		if n := len(rStack); n > 0 {
			r := rStack[n-1]
			rStack = rStack[:n-1]
			if rowT[r] >= 0 || rowCnt[r] != 1 {
				continue
			}
			c, d := int32(-1), 0.0
			for q := sc.rPtr[r]; q < sc.rPtr[r+1]; q++ {
				if colT[sc.rCol[q]] < 0 {
					c, d = sc.rCol[q], sc.rVal[q]
					break
				}
			}
			// Row r has no other pivot that would not fill it in, so the
			// singleton is taken whatever its size relative to its column;
			// a negligible one is left to the bump.
			if math.Abs(d) <= luPivAbs {
				continue
			}
			f.pivot(sc, r, c, d)
			for q := sc.cPtr[c]; q < sc.cPtr[c+1]; q++ {
				i := sc.cRow[q]
				if rowT[i] >= 0 {
					continue
				}
				f.lIdx = append(f.lIdx, i)
				f.lVal = append(f.lVal, sc.cVal[q]/d)
				if rowCnt[i]--; rowCnt[i] == 1 {
					rStack = append(rStack, i)
				} else if rowCnt[i] == 0 {
					return fmt.Errorf("lp: singular basis (row %d)", i)
				}
			}
			f.closeL(r)
			continue
		}
		break
	}
	sc.cStack, sc.rStack = cStack, rStack

	if len(f.order) < m {
		if err := f.factorBump(cols, sc); err != nil {
			return err
		}
	}

	for i := range cols {
		rowOf[i] = int(f.order[colT[i]])
	}
	// The U entries were recorded row by row in pivot order: that is the
	// row-wise copy once columns map to their positions. The column-wise
	// copy is its transpose.
	nu := len(sc.uC)
	f.uStart = growI32(&f.uStart, m+1)
	f.urStart = growI32(&f.urStart, m+1)
	for t := range f.uStart {
		f.uStart[t] = 0
		f.urStart[t] = 0
	}
	f.urIdx = growI32(&f.urIdx, nu)
	f.urVal = append(f.urVal[:0], sc.uV...)
	for k, c := range sc.uC {
		f.urStart[rowT[sc.uR[k]]+1]++
		f.uStart[colT[c]+1]++
		f.urIdx[k] = f.order[colT[c]]
	}
	for t := 0; t < m; t++ {
		f.uStart[t+1] += f.uStart[t]
		f.urStart[t+1] += f.urStart[t]
	}
	f.uIdx = growI32(&f.uIdx, nu)
	f.uVal = growF(&f.uVal, nu)
	next := growI32(&sc.mark, m) // free until the next load resets it
	copy(next, f.uStart[:m])
	for k, c := range sc.uC {
		t := colT[c]
		f.uIdx[next[t]] = sc.uR[k]
		f.uVal[next[t]] = sc.uV[k]
		next[t]++
	}
	f.fSteps, f.bSteps = f.fSteps[:0], f.bSteps[:0]
	for t := m - 1; t >= 0; t-- {
		if f.dinv[t] != 1 || f.uStart[t+1] > f.uStart[t] {
			f.fSteps = append(f.fSteps, int32(t))
		}
	}
	for t := 0; t < m; t++ {
		if f.dinv[t] != 1 || f.urStart[t+1] > f.urStart[t] {
			f.bSteps = append(f.bSteps, int32(t))
		}
	}
	return nil
}

// pivot records the next pivot step: row r, column-list index c, value d.
func (f *luFactor) pivot(sc *luScratch, r, c int32, d float64) {
	sc.rowT[r] = int32(len(f.order))
	sc.colT[c] = int32(len(f.order))
	f.order = append(f.order, r)
	f.dinv = append(f.dinv, 1/d)
}

// closeL ends the L eta of pivot row r begun at the last lStart offset,
// dropping it when no multiplier was recorded.
func (f *luFactor) closeL(r int32) {
	if int(f.lStart[len(f.lStart)-1]) == len(f.lIdx) {
		return
	}
	f.lPiv = append(f.lPiv, r)
	f.lStart = append(f.lStart, int32(len(f.lIdx)))
}

// load builds the merged CSC of the basis matrix, its CSR, and the active
// counts, and marks every row and column unpivoted.
func (sc *luScratch) load(sf *standardForm, cols []int) {
	m := sf.m
	mark := growI32(&sc.mark, m)
	for r := range mark {
		mark[r] = -1
	}
	sc.cPtr = growI32(&sc.cPtr, m+1)
	sc.cRow, sc.cVal = sc.cRow[:0], sc.cVal[:0]
	sc.cPtr[0] = 0
	for i, j := range cols {
		start := int32(len(sc.cRow))
		if j >= sf.nv {
			sc.cRow = append(sc.cRow, int32(j-sf.nv))
			sc.cVal = append(sc.cVal, 1)
		} else {
			for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
				r := sf.colRow[k]
				if q := mark[r]; q >= 0 {
					sc.cVal[q] += sf.colVal[k]
					continue
				}
				mark[r] = int32(len(sc.cRow))
				sc.cRow = append(sc.cRow, r)
				sc.cVal = append(sc.cVal, sf.colVal[k])
			}
			for q := start; q < int32(len(sc.cRow)); q++ {
				mark[sc.cRow[q]] = -1
			}
		}
		sc.cPtr[i+1] = int32(len(sc.cRow))
	}
	nnz := len(sc.cRow)

	sc.rPtr = growI32(&sc.rPtr, m+1)
	for r := range sc.rPtr {
		sc.rPtr[r] = 0
	}
	for _, r := range sc.cRow {
		sc.rPtr[r+1]++
	}
	for r := 0; r < m; r++ {
		sc.rPtr[r+1] += sc.rPtr[r]
	}
	sc.rCol = growI32(&sc.rCol, nnz)
	sc.rVal = growF(&sc.rVal, nnz)
	next := growI32(&sc.rowCnt, m) // fill cursor, then the row counts
	copy(next, sc.rPtr[:m])
	sc.colCnt = growI32(&sc.colCnt, m)
	for c := 0; c < m; c++ {
		sc.colCnt[c] = sc.cPtr[c+1] - sc.cPtr[c]
		for q := sc.cPtr[c]; q < sc.cPtr[c+1]; q++ {
			r := sc.cRow[q]
			sc.rCol[next[r]] = int32(c)
			sc.rVal[next[r]] = sc.cVal[q]
			next[r]++
		}
	}
	for r := 0; r < m; r++ {
		sc.rowCnt[r] = sc.rPtr[r+1] - sc.rPtr[r]
	}
	sc.colT = growI32(&sc.colT, m)
	sc.rowT = growI32(&sc.rowT, m)
	for i := 0; i < m; i++ {
		sc.colT[i], sc.rowT[i] = -1, -1
	}
}

// factorBump factors the rows and columns the triangular phase left
// active: right-looking Gaussian elimination on an explicit sparse active
// submatrix, each pivot chosen by Markowitz cost (row count−1)·(column
// count−1) among entries within refactorPivRel of their column's largest
// magnitude.
func (f *luFactor) factorBump(cols []int, sc *luScratch) error {
	m := len(cols)
	k := m - len(f.order)
	sc.bColG = growI32(&sc.bColG, k)
	sc.bRowG = growI32(&sc.bRowG, k)
	sc.bLoc = growI32(&sc.bLoc, m)
	nc, nr := int32(0), int32(0)
	for r := 0; r < m; r++ {
		if sc.rowT[r] < 0 {
			sc.bLoc[r] = nr
			sc.bRowG[nr] = int32(r)
			nr++
		}
	}
	// Every line starts with room for as much fill again as it has
	// entries; the active counts are exact after the triangular phase.
	sc.bCols.reset(k)
	sc.bRows.reset(k)
	for lr, r := range sc.bRowG[:k] {
		sc.bRows.reserve(int32(lr), 2*sc.rowCnt[r]+2)
	}
	for c := 0; c < m; c++ {
		if sc.colT[c] >= 0 {
			continue
		}
		sc.bCols.reserve(nc, 2*sc.colCnt[c]+2)
		for q := sc.cPtr[c]; q < sc.cPtr[c+1]; q++ {
			if r := sc.cRow[q]; sc.rowT[r] < 0 {
				lr := sc.bLoc[r]
				sc.bCols.add(nc, luEnt{lr, sc.cVal[q]})
				sc.bRows.add(lr, nc)
			}
		}
		sc.bColG[nc] = int32(c)
		nc++
	}
	sc.bMark = growI32(&sc.bMark, k)
	sc.colMax = growF(&sc.colMax, k)
	sc.colB.init(k)
	sc.rowB.init(k)
	for i := int32(0); i < int32(k); i++ {
		sc.bMark[i] = -1
		sc.colMax[i] = -1
		sc.colB.set(i, sc.bCols.n[i])
		sc.rowB.set(i, sc.bRows.n[i])
	}

	for step := 0; step < k; step++ {
		if sc.colB.head[0] >= 0 || sc.rowB.head[0] >= 0 {
			return fmt.Errorf("lp: singular basis (structurally, %d bump pivots left)", k-step)
		}
		pr, pc, pv := sc.choosePivot(k)
		if pr < 0 {
			return fmt.Errorf("lp: singular basis (no pivot above %g, %d bump pivots left)", luPivAbs, k-step)
		}
		gr := sc.bRowG[pr]
		f.pivot(sc, gr, sc.bColG[pc], pv)

		// The pivot row leaves every other column; its entries are U's.
		sc.pRow = sc.pRow[:0]
		for _, c2 := range sc.bRows.line(pr) {
			if c2 == pc {
				continue
			}
			for q, e := range sc.bCols.line(c2) {
				if e.i == pr {
					sc.pRow = append(sc.pRow, luEnt{c2, e.v})
					sc.bCols.drop(c2, q)
					break
				}
			}
			sc.colMax[c2] = -1
		}
		for _, e := range sc.pRow {
			sc.uR = append(sc.uR, gr)
			sc.uC = append(sc.uC, sc.bColG[e.i])
			sc.uV = append(sc.uV, e.v)
		}
		// The pivot column's other entries are L's multipliers; those rows
		// lose the column.
		sc.pCol = sc.pCol[:0]
		for _, e := range sc.bCols.line(pc) {
			if e.i == pr {
				continue
			}
			l := e.v / pv
			sc.pCol = append(sc.pCol, luEnt{e.i, l})
			f.lIdx = append(f.lIdx, sc.bRowG[e.i])
			f.lVal = append(f.lVal, l)
			for q, c2 := range sc.bRows.line(e.i) {
				if c2 == pc {
					sc.bRows.drop(e.i, q)
					break
				}
			}
		}
		f.closeL(gr)
		sc.colB.remove(pc)
		sc.rowB.remove(pr)

		// Rank-one update of the active submatrix: column c2 gains
		// −l_i·u for every multiplier row i, creating fill where row i
		// had no entry.
		for _, pe := range sc.pRow {
			c2, u := pe.i, pe.v
			for q, e := range sc.bCols.line(c2) {
				sc.bMark[e.i] = int32(q)
			}
			for _, le := range sc.pCol {
				if q := sc.bMark[le.i]; q >= 0 {
					sc.bCols.line(c2)[q].v -= le.v * u
					continue
				}
				sc.bCols.add(c2, luEnt{le.i, -le.v * u})
				sc.bRows.add(le.i, c2)
			}
			for _, e := range sc.bCols.line(c2) {
				sc.bMark[e.i] = -1
			}
			sc.colB.set(c2, sc.bCols.n[c2])
		}
		for _, le := range sc.pCol {
			sc.rowB.set(le.i, sc.bRows.n[le.i])
		}
	}
	return nil
}

// choosePivot runs the Markowitz search over the active bump: columns and
// rows in increasing count order, stopping once the best candidate's cost
// cannot be beaten by any unexamined entry (all of which sit in rows and
// columns with count > cnt, so cost ≥ cnt²) or luSearchLimit lines have
// been examined with a candidate in hand. Ties go to the larger
// magnitude. Returns pr < 0 when no entry clears the thresholds.
func (sc *luScratch) choosePivot(k int) (pr, pc int32, pv float64) {
	pr, pc = -1, -1
	bestCost, bestAbs := int64(math.MaxInt64), 0.0
	searched := 0
	consider := func(r, c int32, v float64, rowCnt, colCnt int) {
		a := math.Abs(v)
		if a <= luPivAbs || a < refactorPivRel*sc.colMaxOf(c) {
			return
		}
		cost := int64(rowCnt-1) * int64(colCnt-1)
		if cost < bestCost || (cost == bestCost && a > bestAbs) {
			pr, pc, pv, bestCost, bestAbs = r, c, v, cost, a
		}
	}
	for cnt := int32(1); cnt <= int32(k); cnt++ {
		for c := sc.colB.head[cnt]; c >= 0; c = sc.colB.next[c] {
			for _, e := range sc.bCols.line(c) {
				consider(e.i, c, e.v, int(sc.bRows.n[e.i]), int(cnt))
			}
			if searched++; pr >= 0 && searched >= luSearchLimit {
				return
			}
		}
		for r := sc.rowB.head[cnt]; r >= 0; r = sc.rowB.next[r] {
			for _, c := range sc.bRows.line(r) {
				col := sc.bCols.line(c)
				for _, e := range col {
					if e.i == r {
						consider(r, c, e.v, int(cnt), len(col))
						break
					}
				}
			}
			if searched++; pr >= 0 && searched >= luSearchLimit {
				return
			}
		}
		if pr >= 0 && bestCost <= int64(cnt)*int64(cnt) {
			return
		}
	}
	return
}

// colMaxOf returns the largest magnitude in active bump column c, cached
// until the column changes.
func (sc *luScratch) colMaxOf(c int32) float64 {
	if sc.colMax[c] < 0 {
		mx := 0.0
		for _, e := range sc.bCols.line(c) {
			mx = math.Max(mx, math.Abs(e.v))
		}
		sc.colMax[c] = mx
	}
	return sc.colMax[c]
}

// countBuckets files items 0..n-1 in doubly linked lists by count, so the
// Markowitz search walks the sparsest rows and columns first and counts
// move in O(1).
type countBuckets struct {
	head, next, prev, cnt []int32
}

func (b *countBuckets) init(n int) {
	b.head = growI32(&b.head, n+1)
	b.next = growI32(&b.next, n)
	b.prev = growI32(&b.prev, n)
	b.cnt = growI32(&b.cnt, n)
	for i := range b.head {
		b.head[i] = -1
	}
	for i := range b.cnt {
		b.cnt[i] = -1
	}
}

// set files x under count c (moving it if already filed).
func (b *countBuckets) set(x, c int32) {
	if b.cnt[x] == c {
		return
	}
	b.remove(x)
	b.cnt[x] = c
	b.prev[x] = -1
	b.next[x] = b.head[c]
	if h := b.head[c]; h >= 0 {
		b.prev[h] = x
	}
	b.head[c] = x
}

// remove unfiles x (a no-op when it is not filed).
func (b *countBuckets) remove(x int32) {
	c := b.cnt[x]
	if c < 0 {
		return
	}
	if p := b.prev[x]; p >= 0 {
		b.next[p] = b.next[x]
	} else {
		b.head[c] = b.next[x]
	}
	if n := b.next[x]; n >= 0 {
		b.prev[n] = b.prev[x]
	}
	b.cnt[x] = -1
}

// lines stores the variable-length lines (columns or rows) of the bump in
// one grow-only buffer: line l occupies n[l] of the c[l] slots at off[l].
// A line that outgrows its slots moves to the end of the buffer with
// twice the room, so a factorization allocates only while the buffer is
// still growing to its high-water mark.
type lines[T any] struct {
	buf       []T
	off, n, c []int32
	used      int32
}

// reset empties the store for nl lines, keeping the buffer.
func (ls *lines[T]) reset(nl int) {
	ls.off = growI32(&ls.off, nl)
	ls.n = growI32(&ls.n, nl)
	ls.c = growI32(&ls.c, nl)
	for l := range ls.n {
		ls.n[l], ls.c[l] = 0, 0
	}
	ls.used = 0
}

// reserve gives empty line l room for c entries at the end of the buffer.
func (ls *lines[T]) reserve(l, c int32) {
	if need := int(ls.used + c); need > len(ls.buf) {
		buf := make([]T, max(2*len(ls.buf), need))
		copy(buf, ls.buf[:ls.used])
		ls.buf = buf
	}
	ls.off[l], ls.c[l] = ls.used, c
	ls.used += c
}

// line returns the entries of line l (valid until the next add).
func (ls *lines[T]) line(l int32) []T { return ls.buf[ls.off[l] : ls.off[l]+ls.n[l]] }

// add appends v to line l, moving the line when it is full.
func (ls *lines[T]) add(l int32, v T) {
	if ls.n[l] == ls.c[l] {
		off, n := ls.off[l], ls.n[l]
		ls.reserve(l, 2*n+2)
		copy(ls.buf[ls.off[l]:], ls.buf[off:off+n])
	}
	ls.buf[ls.off[l]+ls.n[l]] = v
	ls.n[l]++
}

// drop removes entry q of line l, moving the last entry into its place.
func (ls *lines[T]) drop(l int32, q int) {
	last := ls.off[l] + ls.n[l] - 1
	ls.buf[int(ls.off[l])+q] = ls.buf[last]
	ls.n[l]--
}
