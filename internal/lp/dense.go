package lp

// denseInverse is the dense backend's basis representation: an explicit
// row-major m×m inverse, updated in Θ(m²) per pivot by applying the eta
// transform to every row. It never needs refactorization (the inverse is
// maintained directly) but pays dimension-proportional cost on every
// operation regardless of sparsity — which is exactly why the sparse
// revised backend exists. A basis transplant (factor) goes through the
// same sparse LU as the sparse backend, then expands B⁻¹ column by column.
type denseInverse struct {
	m    int
	binv []float64 // row-major m×m
	tmp  []float64 // ftran scratch
	lu   luFactor
}

func (d *denseInverse) reset(m int) {
	d.m = m
	need := m * m
	if cap(d.binv) < need {
		d.binv = make([]float64, need)
	} else {
		d.binv = d.binv[:need]
		for i := range d.binv {
			d.binv[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		d.binv[i*m+i] = 1
	}
	if cap(d.tmp) < m {
		d.tmp = make([]float64, m)
	}
	d.tmp = d.tmp[:m]
}

func (d *denseInverse) ftran(v []float64) {
	m := d.m
	z := d.tmp[:m]
	for i := range z {
		z[i] = 0
	}
	for k := 0; k < m; k++ {
		vk := v[k]
		if vk == 0 {
			continue
		}
		// Column k of B⁻¹ scaled by v[k].
		for i := 0; i < m; i++ {
			z[i] += d.binv[i*m+k] * vk
		}
	}
	copy(v, z)
}

func (d *denseInverse) ftranColumn(sf *standardForm, j int, w []float64) {
	sf.loadColumn(j, w)
	d.ftran(w)
}

func (d *denseInverse) btran(y []float64) {
	m := d.m
	z := d.tmp[:m]
	for i := range z {
		z[i] = 0
	}
	for i := 0; i < m; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		row := d.binv[i*m : i*m+m]
		for k, b := range row {
			z[k] += yi * b
		}
	}
	copy(y, z)
}

func (d *denseInverse) btranUnit(r int, y []float64) {
	copy(y, d.binv[r*d.m:r*d.m+d.m])
}

func (d *denseInverse) update(r int, w []float64) {
	m := d.m
	inv := 1 / w[r]
	prow := d.binv[r*m : r*m+m]
	for k := range prow {
		prow[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		row := d.binv[i*m : i*m+m]
		for k, p := range prow {
			row[k] -= f * p
		}
	}
}

func (d *denseInverse) factor(sf *standardForm, cols, rowOf []int, ws *Workspace) error {
	if err := d.lu.factorize(sf, cols, rowOf, &ws.luSc); err != nil {
		return err
	}
	m := d.m
	col := d.tmp[:m]
	for k := 0; k < m; k++ {
		for i := range col {
			col[i] = 0
		}
		col[k] = 1
		d.lu.ftran(col, nil)
		for i, v := range col {
			d.binv[i*m+k] = v
		}
	}
	return nil
}

func (d *denseInverse) shouldRefactor() bool { return false }

func (d *denseInverse) clone(*Workspace) basisRep {
	return &denseInverse{
		m:    d.m,
		binv: append([]float64(nil), d.binv...),
		tmp:  make([]float64, d.m),
	}
}
