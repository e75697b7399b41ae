package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseSparseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(20, 30)
	for k := 0; k < 100; k++ {
		d.Set(rng.Intn(20), rng.Intn(30), rng.Float64())
	}
	s := FromDense(d, 0)
	back := s.ToDense()
	for i := range d.Data {
		if d.Data[i] != back.Data[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, d.Data[i], back.Data[i])
		}
	}
}

func TestFromDenseThreshold(t *testing.T) {
	d := NewDense(1, 3)
	d.Set(0, 0, 0.5)
	d.Set(0, 1, -0.5)
	d.Set(0, 2, 0.01)
	s := FromDense(d, 0.1)
	if s.NNZ() != 2 {
		t.Fatalf("nnz %d want 2 (threshold keeps both signs)", s.NNZ())
	}
}

func TestAssembleCSR(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 2)
	b := NewDense(2, 2)
	b.Set(0, 0, 3)
	b.Set(0, 1, 4)
	sum, err := AssembleCSR([]*CSR{FromDense(a, 0), FromDense(b, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0, 0) != 4 || sum.At(0, 1) != 4 || sum.At(1, 1) != 2 {
		t.Fatalf("assembled: %v %v %v", sum.At(0, 0), sum.At(0, 1), sum.At(1, 1))
	}
	if sum.NNZ() != 3 {
		t.Fatalf("nnz %d", sum.NNZ())
	}
}

func TestAssembleCSRErrors(t *testing.T) {
	if _, err := AssembleCSR(nil); err == nil {
		t.Fatal("empty assembly should fail")
	}
	a := FromDense(NewDense(2, 2), 0)
	b := FromDense(NewDense(3, 2), 0)
	if _, err := AssembleCSR([]*CSR{a, b}); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestAssembleMatchesDenseSum(t *testing.T) {
	// Property: assembling random sparse pieces equals summing their dense
	// expansions — the correctness claim behind the time-sliced strategy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const rows, cols = 8, 11
		var pieces []*CSR
		want := NewDense(rows, cols)
		for p := 0; p < 4; p++ {
			c := NewDense(rows, cols)
			for k := 0; k < 25; k++ {
				i, j, v := rng.Intn(rows), rng.Intn(cols), float64(rng.Intn(5))
				c.Add(i, j, v)
				want.Add(i, j, v)
			}
			pieces = append(pieces, FromDense(c, 0))
		}
		got, err := AssembleCSR(pieces)
		if err != nil {
			return false
		}
		gd := got.ToDense()
		for i := range want.Data {
			if gd.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRColumnOrderInvariant pins the k-way merge of AssembleCSR: every
// assembled row keeps strictly increasing columns, which At's binary search
// relies on.
func TestCSRColumnOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var pieces []*CSR
	for p := 0; p < 3; p++ {
		c := NewDense(5, 40)
		for k := 0; k < 70; k++ {
			c.Add(rng.Intn(5), rng.Intn(40), 1)
		}
		pieces = append(pieces, FromDense(c, 0))
	}
	m, err := AssembleCSR(pieces)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.RowNNZ(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d columns not strictly increasing: %v", i, cols)
			}
		}
	}
}
