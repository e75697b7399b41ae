// Package matrix provides the dense and sparse matrix types behind the
// co-reporting, follow-reporting, and cross-reporting analyses: row-major
// dense matrices (the paper computes the 20996² co-reporting matrix densely
// in ~1.8 GB), CSR sparse matrices built from dense slices, time-sliced sparse
// assembly (Section VI-B's strategy for larger source populations), and the
// Jaccard index arithmetic.
package matrix

import (
	"fmt"
	"sync"
)

// Dense is a row-major dense float64 matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// ColSums returns the per-column sums (the "Sum" row of Table IV).
func (m *Dense) ColSums() []float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			d := m.At(i, j) - m.At(j, i)
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// MatMul returns m·o. Inner dimensions must agree.
func (m *Dense) MatMul(o *Dense) (*Dense, error) {
	if m.Cols != o.Rows {
		return nil, fmt.Errorf("matrix: multiplying %dx%d by %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := NewDense(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k, mv := range mi {
			if mv == 0 {
				continue
			}
			ok := o.Row(k)
			for j, ov := range ok {
				oi[j] += mv * ov
			}
		}
	}
	return out, nil
}

// Int64 is a row-major dense int64 matrix, used for exact pair and article
// counters (Tables IV and VI are integer counts before normalization).
type Int64 struct {
	Rows, Cols int
	Data       []int64
}

// NewInt64 returns a zeroed rows×cols integer matrix.
func NewInt64(rows, cols int) *Int64 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Int64{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
}

// At returns element (i, j).
func (m *Int64) At(i, j int) int64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Int64) Set(i, j int, v int64) { m.Data[i*m.Cols+j] = v }

// Inc adds one to element (i, j).
func (m *Int64) Inc(i, j int) { m.Data[i*m.Cols+j]++ }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Int64) Row(i int) []int64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// AddMatrix accumulates o into m elementwise (the merge step of per-worker
// partial matrices). Shapes must match.
func (m *Int64) AddMatrix(o *Int64) error {
	if o.Rows != m.Rows || o.Cols != m.Cols {
		return fmt.Errorf("matrix: adding %dx%d into %dx%d", o.Rows, o.Cols, m.Rows, m.Cols)
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
	return nil
}

// AddMatrixParallel accumulates o into m elementwise using up to workers
// goroutines over disjoint chunks of the backing slice. It is the merge
// step for large per-worker partial matrices, where a serial fold would
// leave one goroutine adding millions of elements while the rest idle.
// Small matrices (or workers < 2) fall back to the serial AddMatrix.
func (m *Int64) AddMatrixParallel(o *Int64, workers int) error {
	if o.Rows != m.Rows || o.Cols != m.Cols {
		return fmt.Errorf("matrix: adding %dx%d into %dx%d", o.Rows, o.Cols, m.Rows, m.Cols)
	}
	n := len(m.Data)
	if workers < 2 || n < 1<<14 {
		return m.AddMatrix(o)
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			dst, src := m.Data[lo:hi], o.Data[lo:hi]
			for i, v := range src {
				dst[i] += v
			}
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// ToDense converts to a float64 dense matrix.
func (m *Int64) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i, v := range m.Data {
		d.Data[i] = float64(v)
	}
	return d
}
