package matrix

import (
	"math"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Add(0, 0, 2)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 3 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatalf("data %v", m.Data)
	}
	if r := m.Row(1); len(r) != 3 || r[2] != 5 {
		t.Fatalf("row %v", r)
	}
}

func TestDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(-1, 2)
}

func TestDenseCloneIndependent(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestDenseColRowSums(t *testing.T) {
	m := NewDense(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(i*3+j))
		}
	}
	cs := m.ColSums()
	if cs[0] != 3 || cs[1] != 5 || cs[2] != 7 {
		t.Fatalf("col sums %v", cs)
	}
}

func TestDenseMaxOffDiagonalAndSymmetry(t *testing.T) {
	m := NewDense(3, 3)
	m.Set(0, 0, 100)
	m.Set(0, 2, 7)
	m.Set(2, 0, 7)
	if !m.IsSymmetric(0) {
		t.Fatal("should be symmetric")
	}
	m.Set(1, 0, 1)
	if m.IsSymmetric(1e-12) {
		t.Fatal("should not be symmetric")
	}
	if m.IsSymmetric(2) {
		// within tolerance 2 the difference of 1 passes
	} else {
		t.Fatal("tolerance not respected")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}

func TestMatMul(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	// a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(a.Data, vals)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c, err := a.MatMul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-12 {
			t.Fatalf("product %v want %v", c.Data, want)
		}
	}
	if _, err := a.MatMul(a); err == nil {
		t.Fatal("inner dimension mismatch should fail")
	}
}

func TestInt64Matrix(t *testing.T) {
	m := NewInt64(2, 2)
	m.Inc(0, 1)
	m.Inc(0, 1)
	m.Set(1, 0, 5)
	m.Set(1, 1, 7)
	if m.At(0, 1) != 2 || m.At(1, 0) != 5 || m.At(1, 1) != 7 {
		t.Fatalf("data %v", m.Data)
	}
	o := NewInt64(2, 2)
	o.Set(0, 0, 1)
	if err := m.AddMatrix(o); err != nil || m.At(0, 0) != 1 {
		t.Fatalf("add: %v %v", err, m.Data)
	}
	if err := m.AddMatrix(NewInt64(1, 2)); err == nil {
		t.Fatal("shape mismatch should fail")
	}
	d := m.ToDense()
	if d.At(1, 1) != 7 {
		t.Fatalf("to dense %v", d.Data)
	}
	if r := m.Row(0); r[0] != 1 || r[1] != 2 {
		t.Fatalf("row %v", r)
	}
}

func TestInt64PanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInt64(2, -2)
}
