package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row float64 matrix. Column indexes within each
// row are strictly increasing.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64 // len Rows+1
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Vals) }

// At returns element (i, j) by binary search within row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := m.ColIdx[lo:hi]
	k := sort.Search(len(idx), func(k int) bool { return idx[k] >= int32(j) })
	if k < len(idx) && idx[k] == int32(j) {
		return m.Vals[lo+int64(k)]
	}
	return 0
}

// RowNNZ returns the column indexes and values of row i, aliasing storage.
func (m *CSR) RowNNZ(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// ToDense expands the matrix.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.RowNNZ(i)
		row := d.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return d
}

// FromDense compresses d, keeping elements with |v| > threshold.
func FromDense(d *Dense, threshold float64) *CSR {
	m := &CSR{Rows: d.Rows, Cols: d.Cols, RowPtr: make([]int64, d.Rows+1)}
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v > threshold || v < -threshold {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Vals = append(m.Vals, v)
			}
		}
		m.RowPtr[i+1] = int64(len(m.Vals))
	}
	return m
}

// AssembleCSR sums sparse matrices of identical shape into one, the
// Section VI-B strategy of building a global co-reporting matrix from
// compressed per-time-span pieces. It merges rows pairwise like a k-way
// merge over sorted column lists.
func AssembleCSR(pieces []*CSR) (*CSR, error) {
	if len(pieces) == 0 {
		return nil, fmt.Errorf("matrix: assembling zero pieces")
	}
	rows, cols := pieces[0].Rows, pieces[0].Cols
	for _, p := range pieces[1:] {
		if p.Rows != rows || p.Cols != cols {
			return nil, fmt.Errorf("matrix: assembling %dx%d with %dx%d", rows, cols, p.Rows, p.Cols)
		}
	}
	out := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	// Accumulate row-by-row into a scratch map from column to value; rows in
	// news matrices are short, so a small map beats a dense scratch vector
	// of width Cols.
	scratch := make(map[int32]float64)
	colBuf := make([]int32, 0, 64)
	for i := 0; i < rows; i++ {
		for k := range scratch {
			delete(scratch, k)
		}
		for _, p := range pieces {
			cis, vs := p.RowNNZ(i)
			for k, ci := range cis {
				scratch[ci] += vs[k]
			}
		}
		colBuf = colBuf[:0]
		for ci := range scratch {
			colBuf = append(colBuf, ci)
		}
		sort.Slice(colBuf, func(a, b int) bool { return colBuf[a] < colBuf[b] })
		for _, ci := range colBuf {
			out.ColIdx = append(out.ColIdx, ci)
			out.Vals = append(out.Vals, scratch[ci])
		}
		out.RowPtr[i+1] = int64(len(out.Vals))
	}
	return out, nil
}
