package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// column in position p is the column basic in row p, kept current across
// basis changes by Forrest–Tomlin updates. Positions are row indices, so
// an ftran result needs no permutation:
//
//   - L⁻¹ is a sequence of column etas in pivot order. The eta of pivot t
//     holds the multipliers l_i of the rows i pivoted after it; applying
//     it subtracts l_i·v[p] from v[i], p its pivot row. L never changes
//     between refactorizations.
//   - R is the sequence of row etas the updates appended, oldest first.
//     Applying the eta of row r subtracts Σ m_i·v[i] from v[r].
//   - U is upper triangular in pivot order, the diagonal of position p at
//     (p, p). Its off-diagonal entries are stored twice, one line per
//     position: by column (column p holds U[i, p] for the rows i pivoted
//     before p) and by row (row p holds U[p, j] for the columns j pivoted
//     after p); dinv[p] is the inverse of the diagonal. ftran walks the
//     columns backwards and btran the rows forwards, both skipping zero
//     entries of their vector.
//
// So (R_k···R_1·L⁻¹)·B = U, and ftran and btran cost at most
// O(m + nnz). A position with a unit diagonal and an empty column (row)
// leaves ftran (btran) unchanged — in ftran every slack pivoted in the
// triangular phase is one — so each walk visits only the positions in
// its stepList, fSteps (bSteps).
//
// An update (see update) replaces one column of U by the entering
// column's spike, moves its position to the end of the pivot order and
// eliminates the position's old row with one row eta. rank[p] is the
// current pivot rank of position p: its step during the factorization,
// then m, m+1, … as updates move it to the end.
type luFactor struct {
	m    int
	dinv []float64 // dinv[p] is 1 / the diagonal of U at position p

	L etaSeq // the nonempty L etas, in pivot order
	R etaSeq // the updates' row etas, oldest first

	uc   lines[luEnt] // column p of U off the diagonal: (row, value)
	ur   lines[luEnt] // row p of U off the diagonal: (column, value)
	uNNZ int          // off-diagonal entries of U (each stored twice)

	fSteps, bSteps stepList
	rank           []int32 // the current pivot rank of each position
	next           int32   // the rank the next update moves its position to

	updates int // updates since the factorization
	nnz0    int // nnz() right after the factorization
}

// nnz counts the stored factor entries — diagonal, L, U and the row etas
// — so that right after a factorization it compares directly with the
// nonzeros of the basis matrix.
func (f *luFactor) nnz() int { return f.m + len(f.L.idx) + f.uNNZ + len(f.R.idx) }

// identity installs the factorization of the all-slack basis.
func (f *luFactor) identity(m int) {
	f.m = m
	f.dinv = growF(&f.dinv, m)
	f.rank = growI32(&f.rank, m)
	for p := 0; p < m; p++ {
		f.dinv[p] = 1
		f.rank[p] = int32(p)
	}
	f.L.reset()
	f.uc.reset(m)
	f.ur.reset(m)
	f.uNNZ = 0
	f.fSteps.reset()
	f.bSteps.reset()
	f.next = int32(m)
	f.clearUpdates()
}

// clearUpdates empties the row-eta file and the update count, and records
// the factor size the refactorization trigger measures growth against.
func (f *luFactor) clearUpdates() {
	f.R.reset()
	f.updates = 0
	f.nnz0 = f.nnz()
}

// copyFrom deep-copies src into f, reusing f's storage.
func (f *luFactor) copyFrom(src *luFactor) {
	f.m = src.m
	f.dinv = append(f.dinv[:0], src.dinv...)
	f.L.copyFrom(&src.L)
	f.R.copyFrom(&src.R)
	f.uc.copyFrom(&src.uc)
	f.ur.copyFrom(&src.ur)
	f.uNNZ = src.uNNZ
	f.fSteps.copyFrom(&src.fSteps)
	f.bSteps.copyFrom(&src.bSteps)
	f.rank = append(f.rank[:0], src.rank...)
	f.next, f.updates, f.nnz0 = src.next, src.updates, src.nnz0
}

// ftran overwrites v with B⁻¹·v. With sp non-nil, v holds an entering
// column whose nonzero rows sp has noted (see spikeBuf), and sp receives
// its spike: L⁻¹ and the row etas applied to it, as update needs.
func (f *luFactor) ftran(v []float64, sp *spikeBuf) {
	L, R := &f.L, &f.R
	for k, r := range L.piv {
		t := v[r]
		if t == 0 {
			continue
		}
		for q := L.start[k]; q < L.start[k+1]; q++ {
			i := L.idx[q]
			if sp != nil {
				sp.note(i)
			}
			v[i] -= L.val[q] * t
		}
	}
	for k, r := range R.piv {
		s := 0.0
		for q := R.start[k]; q < R.start[k+1]; q++ {
			s += R.val[q] * v[R.idx[q]]
		}
		if s != 0 {
			v[r] -= s
			if sp != nil {
				sp.note(r)
			}
		}
	}
	if sp != nil {
		sp.capture(v)
	}
	for k := len(f.fSteps.pos) - 1; k >= 0; k-- {
		p := f.fSteps.pos[k]
		if p < 0 {
			continue
		}
		x := v[p]
		if x == 0 {
			continue
		}
		x *= f.dinv[p]
		v[p] = x
		for _, e := range f.uc.line(p) {
			v[e.i] -= e.v * x
		}
	}
}

// btran overwrites y with yᵀ·B⁻¹: forward substitution through Uᵀ row by
// row, skipping zero entries of y, then the row etas and the L etas
// transposed, newest first.
func (f *luFactor) btran(y []float64) {
	for _, p := range f.bSteps.pos {
		if p < 0 {
			continue
		}
		x := y[p]
		if x == 0 {
			continue
		}
		x *= f.dinv[p]
		y[p] = x
		for _, e := range f.ur.line(p) {
			y[e.i] -= e.v * x
		}
	}
	L, R := &f.L, &f.R
	for k := len(R.piv) - 1; k >= 0; k-- {
		t := y[R.piv[k]]
		if t == 0 {
			continue
		}
		for q := R.start[k]; q < R.start[k+1]; q++ {
			y[R.idx[q]] -= R.val[q] * t
		}
	}
	for k := len(L.piv) - 1; k >= 0; k-- {
		s := 0.0
		for q := L.start[k]; q < L.start[k+1]; q++ {
			s += L.val[q] * y[L.idx[q]]
		}
		y[L.piv[k]] -= s
	}
}

// luFTTol is the Forrest–Tomlin stability check: an update whose new
// diagonal differs from w[r]·(old diagonal) — the value the determinant
// identity det(B') = w[r]·det(B) predicts — by more than this relative
// amount has lost accuracy, and the basis is refactorized instead.
const luFTTol = 1e-9

// spikeBuf holds the spike of an entering column for update: v is L⁻¹
// and the row etas applied to the column, zero outside pat, which lists
// (a superset of) its nonzero rows, as ftran noted them.
type spikeBuf struct {
	v   []float64
	pat []int32
	in  []bool // marks the rows in pat while ftran builds it
}

func (sp *spikeBuf) size(m int) {
	sp.v = growF(&sp.v, m)
	clear(sp.v)
	if cap(sp.in) < m {
		sp.in = make([]bool, m)
	}
	sp.in = sp.in[:m]
	clear(sp.in)
	sp.pat = sp.pat[:0]
}

// begin clears the previous spike.
func (sp *spikeBuf) begin() {
	for _, i := range sp.pat {
		sp.v[i] = 0
	}
	sp.pat = sp.pat[:0]
}

// note adds row i to the pattern.
func (sp *spikeBuf) note(i int32) {
	if !sp.in[i] {
		sp.in[i] = true
		sp.pat = append(sp.pat, i)
	}
}

// capture copies v's pattern rows into the spike.
func (sp *spikeBuf) capture(v []float64) {
	for _, i := range sp.pat {
		sp.v[i] = v[i]
		sp.in[i] = false
	}
}

// update is the Forrest–Tomlin update for the basis change at position r:
// sp holds the entering column's spike (L⁻¹ and the row etas applied to
// it, as ftran left it) and wr the pivot element w[r] of B⁻¹·a. Column r of U
// becomes the spike; r moves to the end of the pivot order, which leaves
// its old row below the diagonal; one row eta R eliminates that row,
// subtracting m_p times row p for the positions p pivoted after r. The
// multipliers come from a sparse forward substitution over the rows of U
// — z starts as row r, and the position of lowest rank left in it is
// eliminated next (heap holds the candidates) — and the new diagonal is
// the spike's r entry after R.
//
// update reports false when the new diagonal fails the luFTTol check;
// the factor then represents the new basis only approximately and must
// be rebuilt before its next use.
func (f *luFactor) update(r int32, sp *spikeBuf, wr float64, sc *ftScratch) bool {
	// Row r leaves U: its entries seed the elimination.
	z, heap := sc.z, &sc.heap
	heap.reset(f.rank)
	for _, e := range f.ur.line(r) {
		z[e.i] = e.v
		heap.push(e.i)
		dropEntry(&f.uc, e.i, r)
	}
	f.uNNZ -= int(f.ur.n[r])
	f.ur.n[r] = 0
	spike := sp.v
	diag := spike[r]
	R := &f.R
	for heap.len() > 0 {
		p := heap.pop()
		x := z[p]
		z[p] = 0
		mult := x * f.dinv[p]
		if mult < etaDropTol && mult > -etaDropTol {
			continue // a duplicate, or cancelled out
		}
		diag -= mult * spike[p]
		R.idx = append(R.idx, p)
		R.val = append(R.val, mult)
		for _, e := range f.ur.line(p) {
			if z[e.i] == 0 {
				heap.push(e.i)
			}
			z[e.i] -= mult * e.v
		}
	}
	R.close(r)

	// Column r becomes the spike, in room for exactly its entries.
	for _, e := range f.uc.line(r) {
		dropEntry(&f.ur, e.i, r)
	}
	f.uNNZ -= int(f.uc.n[r])
	f.uc.n[r] = 0
	nz := sc.nz[:0]
	for _, i := range sp.pat {
		if v := spike[i]; (v > etaDropTol || v < -etaDropTol) && i != r {
			nz = append(nz, i)
		}
	}
	sc.nz = nz
	if n := int32(len(nz)); n > f.uc.c[r] {
		f.uc.reserve(r, n)
	}
	for _, i := range nz {
		v := spike[i]
		f.uc.add(r, luEnt{i, v})
		f.ur.add(i, luEnt{r, v})
		if f.ur.n[i] == 1 && f.dinv[i] == 1 {
			f.bSteps.insert(i, f.rank[i]) // the row just became nontrivial
		}
	}
	f.uNNZ += len(nz)

	// r moves to the end of the pivot order, its row empty.
	f.fSteps.remove(r, f.rank[r])
	f.bSteps.remove(r, f.rank[r])
	f.rank[r] = f.next
	f.next++
	f.fSteps.push(r, f.rank[r])
	f.bSteps.push(r, f.rank[r])
	f.updates++
	want := wr / f.dinv[r]
	f.dinv[r] = 1 / diag
	return math.Abs(diag) > luPivAbs && math.Abs(diag-want) <= luFTTol*math.Max(math.Abs(diag), math.Abs(want))
}

// stepList lists positions in pivot order for ftran or btran to visit:
// pos[k] was filed under pivot rank rank[k] (increasing in k), and −1
// marks a position that has since moved to the end of the order. A
// position never moves back, so a filed rank identifies its slot.
type stepList struct {
	pos, rank []int32
}

func (l *stepList) reset() { l.pos, l.rank = l.pos[:0], l.rank[:0] }

func (l *stepList) copyFrom(src *stepList) {
	l.pos = append(l.pos[:0], src.pos...)
	l.rank = append(l.rank[:0], src.rank...)
}

// slot returns the index of the first entry filed at rank ≥ rk.
func (l *stepList) slot(rk int32) int {
	lo, hi := 0, len(l.rank)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.rank[mid] < rk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// push files position p at rank rk, which exceeds every rank filed.
func (l *stepList) push(p, rk int32) {
	l.pos = append(l.pos, p)
	l.rank = append(l.rank, rk)
}

// insert files position p at its rank rk, unless it is listed already.
func (l *stepList) insert(p, rk int32) {
	k := l.slot(rk)
	if k < len(l.rank) && l.rank[k] == rk {
		return
	}
	l.pos = append(l.pos, 0)
	l.rank = append(l.rank, 0)
	copy(l.pos[k+1:], l.pos[k:])
	copy(l.rank[k+1:], l.rank[k:])
	l.pos[k], l.rank[k] = p, rk
}

// remove unlists position p, filed at rank rk, leaving a hole.
func (l *stepList) remove(p, rk int32) {
	if k := l.slot(rk); k < len(l.rank) && l.rank[k] == rk && l.pos[k] == p {
		l.pos[k] = -1
	}
}

// dropEntry removes the entry with index i from line l of ls.
func dropEntry(ls *lines[luEnt], l, i int32) {
	for q, e := range ls.line(l) {
		if e.i == i {
			ls.drop(l, q)
			return
		}
	}
}

// ftScratch is the working storage of update.
type ftScratch struct {
	z    []float64 // length m, zero between updates
	heap rankHeap
	nz   []int32 // the spike's nonzero rows
}

// rankHeap is a binary min-heap of positions ordered by pivot rank.
type rankHeap struct {
	h    []int32
	rank []int32
}

func (hp *rankHeap) reset(rank []int32) { hp.h, hp.rank = hp.h[:0], rank }

func (hp *rankHeap) len() int { return len(hp.h) }

func (hp *rankHeap) push(p int32) {
	h := append(hp.h, p)
	for c := len(h) - 1; c > 0; {
		par := (c - 1) / 2
		if hp.rank[h[par]] <= hp.rank[h[c]] {
			break
		}
		h[par], h[c] = h[c], h[par]
		c = par
	}
	hp.h = h
}

func (hp *rankHeap) pop() int32 {
	h := hp.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for c := 0; ; {
		l := 2*c + 1
		if l >= n {
			break
		}
		if l+1 < n && hp.rank[h[l+1]] < hp.rank[h[l]] {
			l++
		}
		if hp.rank[h[c]] <= hp.rank[h[l]] {
			break
		}
		h[c], h[l] = h[l], h[c]
		c = l
	}
	hp.h = h
	return top
}

// etaSeq is a sequence of sparse etas: eta k belongs to row piv[k] and
// holds the entries idx/val[start[k]:start[k+1]].
type etaSeq struct {
	piv, start, idx []int32
	val             []float64
}

func (e *etaSeq) reset() {
	e.piv = e.piv[:0]
	e.start = append(e.start[:0], 0)
	e.idx = e.idx[:0]
	e.val = e.val[:0]
}

func (e *etaSeq) copyFrom(src *etaSeq) {
	e.piv = append(e.piv[:0], src.piv...)
	e.start = append(e.start[:0], src.start...)
	e.idx = append(e.idx[:0], src.idx...)
	e.val = append(e.val[:0], src.val...)
}

// close ends the eta of row r begun at the last start offset, dropping
// it when no entry was recorded.
func (e *etaSeq) close(r int32) {
	if int(e.start[len(e.start)-1]) == len(e.idx) {
		return
	}
	e.piv = append(e.piv, r)
	e.start = append(e.start, int32(len(e.idx)))
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

	// The pivot sequence: the row of each step and the inverse of its
	// pivot; and the L etas, handed to the factor on success.
	order []int32
	dinv  []float64
	L     etaSeq

	// U entries row by row in pivot order, before they are filed into
	// U's column lines: row, column-list index, value.
	uR, uC []int32
	uV     []float64

	// The bump: active columns with values, active rows as patterns, both
	// in local indices, with the maps back to global ones.
	bCols        lines[luEnt]
	bRows        lines[int32]
	bColG, bRowG []int32
	bLoc         []int32 // global row → local row
	room         []int32 // the slots each bump line starts with
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
// A singular basis returns an error and leaves f as it was (rowOf is
// then unspecified): the factorization works in sc until it has
// succeeded.
func (f *luFactor) factorize(sf *standardForm, cols, rowOf []int, sc *luScratch) error {
	m := sf.m
	sc.order, sc.dinv = sc.order[:0], sc.dinv[:0]
	sc.L.reset()
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
			sc.pivot(r, c, d)
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
			sc.pivot(r, c, d)
			for q := sc.cPtr[c]; q < sc.cPtr[c+1]; q++ {
				i := sc.cRow[q]
				if rowT[i] >= 0 {
					continue
				}
				sc.L.idx = append(sc.L.idx, i)
				sc.L.val = append(sc.L.val, sc.cVal[q]/d)
				if rowCnt[i]--; rowCnt[i] == 1 {
					rStack = append(rStack, i)
				} else if rowCnt[i] == 0 {
					return fmt.Errorf("lp: singular basis (row %d)", i)
				}
			}
			sc.L.close(r)
			continue
		}
		break
	}
	sc.cStack, sc.rStack = cStack, rStack

	if len(sc.order) < m {
		if err := f.factorBump(cols, sc); err != nil {
			return err
		}
	}

	// Success: from here on f is rebuilt, taking the L etas over.
	f.m = m
	f.L, sc.L = sc.L, f.L
	order := sc.order
	for i := range cols {
		rowOf[i] = int(order[colT[i]])
	}
	// Column-list index c sits at position order[colT[c]]. U's column and
	// row lines are laid out in pivot order, with as much room again
	// behind them for the updates, and filled from the entries as
	// recorded, row by row in pivot order.
	nu := len(sc.uC)
	cnt := growI32(&sc.mark, m) // free until the next load resets it
	rcnt := growI32(&sc.rowCnt, m)
	for p := range cnt {
		cnt[p], rcnt[p] = 0, 0
	}
	for k, c := range sc.uC {
		cnt[order[colT[c]]]++
		rcnt[sc.uR[k]]++
	}
	f.uc.layout(order, cnt, nu+m)
	f.ur.layout(order, rcnt, nu+m)
	for k, c := range sc.uC {
		p := order[colT[c]]
		f.uc.add(p, luEnt{sc.uR[k], sc.uV[k]})
		f.ur.add(sc.uR[k], luEnt{p, sc.uV[k]})
	}
	f.uNNZ = nu
	f.dinv = growF(&f.dinv, m)
	f.rank = growI32(&f.rank, m)
	f.fSteps.reset()
	f.bSteps.reset()
	for t, p := range order {
		f.dinv[p] = sc.dinv[t]
		f.rank[p] = int32(t)
		if sc.dinv[t] != 1 || cnt[p] > 0 {
			f.fSteps.push(p, int32(t))
		}
		if sc.dinv[t] != 1 || rcnt[p] > 0 {
			f.bSteps.push(p, int32(t))
		}
	}
	f.next = int32(m)
	f.clearUpdates()
	return nil
}

// pivot records the next pivot step: row r, column-list index c, value d.
func (sc *luScratch) pivot(r, c int32, d float64) {
	sc.rowT[r] = int32(len(sc.order))
	sc.colT[c] = int32(len(sc.order))
	sc.order = append(sc.order, r)
	sc.dinv = append(sc.dinv, 1/d)
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
	k := m - len(sc.order)
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
	room := growI32(&sc.room, k)
	for lr, r := range sc.bRowG[:k] {
		room[lr] = 2*sc.rowCnt[r] + 2
	}
	sc.bRows.layout(nil, room, 0)
	for c := 0; c < m; c++ {
		if sc.colT[c] < 0 {
			sc.bColG[nc] = int32(c)
			room[nc] = 2*sc.colCnt[c] + 2
			nc++
		}
	}
	sc.bCols.layout(nil, room, 0)
	for lc, c := range sc.bColG[:k] {
		for q := sc.cPtr[c]; q < sc.cPtr[c+1]; q++ {
			if r := sc.cRow[q]; sc.rowT[r] < 0 {
				lr := sc.bLoc[r]
				sc.bCols.add(int32(lc), luEnt{lr, sc.cVal[q]})
				sc.bRows.add(lr, int32(lc))
			}
		}
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
		sc.pivot(gr, sc.bColG[pc], pv)

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
			sc.L.idx = append(sc.L.idx, sc.bRowG[e.i])
			sc.L.val = append(sc.L.val, l)
			for q, c2 := range sc.bRows.line(e.i) {
				if c2 == pc {
					sc.bRows.drop(e.i, q)
					break
				}
			}
		}
		sc.L.close(gr)
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

// lines stores variable-length lines (the columns and rows of the bump,
// and of U) in one grow-only buffer: line l occupies n[l] of the c[l]
// slots at off[l]. A line that outgrows its slots moves to the end of
// the buffer with twice the room. When the end is reached, the lines are
// first packed to the front, reclaiming the slots moved lines left
// behind and the ones they never filled, and the buffer grows only if
// that leaves it more than half full — so a store that lives through many
// updates allocates only while its lines are still growing to their
// high-water mark.
type lines[T any] struct {
	buf       []T
	off, n, c []int32
	used      int32
	ord       []int32 // repack scratch
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

// layout empties the store for len(cnt) lines and lays them out in the
// given order (nil: index order), line l with cnt[l] slots, in a buffer
// with at least extra slots to spare behind them.
func (ls *lines[T]) layout(order, cnt []int32, extra int) {
	ls.reset(len(cnt))
	need := extra
	for _, c := range cnt {
		need += int(c)
	}
	if need > len(ls.buf) {
		ls.buf = make([]T, max(need, 2*len(ls.buf)))
	}
	place := func(l int32) {
		ls.off[l], ls.c[l] = ls.used, cnt[l]
		ls.used += cnt[l]
	}
	if order == nil {
		for l := range cnt {
			place(int32(l))
		}
		return
	}
	for _, l := range order {
		place(l)
	}
}

// reserve moves line l to c ≥ n[l] slots at the end of the buffer.
func (ls *lines[T]) reserve(l, c int32) {
	if int(ls.used+c) > len(ls.buf) {
		ls.repack(c)
	}
	off, n := ls.off[l], ls.n[l]
	copy(ls.buf[ls.used:ls.used+n], ls.buf[off:off+n])
	ls.off[l], ls.c[l] = ls.used, c
	ls.used += c
}

// repack packs every line's entries to the front of the buffer, each
// line left with no spare slots — in place, in offset order, while they
// and extra more slots fill at most half of it, else into a new buffer of
// at least twice the size.
func (ls *lines[T]) repack(extra int32) {
	need := extra
	for _, n := range ls.n {
		need += n
	}
	src, dst := ls.buf, ls.buf
	ord := ls.ord[:0]
	for l := range ls.c {
		ord = append(ord, int32(l))
	}
	if 2*int(need) > len(ls.buf) {
		dst = make([]T, max(2*len(ls.buf), 2*int(need)))
	} else {
		slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(ls.off[a], ls.off[b]) })
	}
	used := int32(0)
	for _, l := range ord {
		copy(dst[used:], src[ls.off[l]:ls.off[l]+ls.n[l]])
		ls.off[l], ls.c[l] = used, ls.n[l]
		used += ls.n[l]
	}
	ls.buf, ls.used, ls.ord = dst, used, ord
}

// copyFrom deep-copies src into ls, reusing ls's storage.
func (ls *lines[T]) copyFrom(src *lines[T]) {
	if cap(ls.buf) < int(src.used) {
		ls.buf = make([]T, len(src.buf))
	}
	ls.buf = ls.buf[:cap(ls.buf)]
	copy(ls.buf, src.buf[:src.used])
	ls.off = append(ls.off[:0], src.off...)
	ls.n = append(ls.n[:0], src.n...)
	ls.c = append(ls.c[:0], src.c...)
	ls.used = src.used
}

// line returns the entries of line l (valid until the next add).
func (ls *lines[T]) line(l int32) []T { return ls.buf[ls.off[l] : ls.off[l]+ls.n[l]] }

// add appends v to line l, moving the line when it is full.
func (ls *lines[T]) add(l int32, v T) {
	if ls.n[l] == ls.c[l] {
		ls.reserve(l, 2*ls.n[l]+2)
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
