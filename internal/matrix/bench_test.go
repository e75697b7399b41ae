package matrix

import (
	"math/rand"
	"testing"
)

func randomCSRPieces(n, pieces, nnzPer int, seed int64) []*CSR {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*CSR, pieces)
	for p := range out {
		d := NewDense(n, n)
		for k := 0; k < nnzPer; k++ {
			d.Add(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(4)))
		}
		out[p] = FromDense(d, 0)
	}
	return out
}

// The Section VI-B ablation: assembling a global matrix from sparse
// time-span pieces versus summing dense snapshots.
func BenchmarkAssembleSparsePieces(b *testing.B) {
	pieces := randomCSRPieces(2000, 20, 5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssembleCSR(pieces); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembleDenseSum(b *testing.B) {
	pieces := randomCSRPieces(2000, 20, 5000, 1)
	dense := make([]*Dense, len(pieces))
	for i, p := range pieces {
		dense[i] = p.ToDense()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := NewDense(2000, 2000)
		for _, d := range dense {
			for k, v := range d.Data {
				sum.Data[k] += v
			}
		}
	}
}

func BenchmarkJaccardFromPairCounts(b *testing.B) {
	const n = 500
	rng := rand.New(rand.NewSource(2))
	pair := NewInt64(n, n)
	totals := make([]int64, n)
	for i := 0; i < n; i++ {
		totals[i] = int64(100 + rng.Intn(1000))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.2 {
				m := totals[i]
				if totals[j] < m {
					m = totals[j]
				}
				pair.Set(i, j, int64(rng.Intn(int(m))))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JaccardFromPairCounts(pair, totals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJaccardSets(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mk := func() []int32 {
		s := make([]int32, 10000)
		v := int32(0)
		for i := range s {
			v += int32(1 + rng.Intn(5))
			s[i] = v
		}
		return s
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JaccardSets(x, y)
	}
}

func BenchmarkMatMul200(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := NewDense(200, 200)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MatMul(m); err != nil {
			b.Fatal(err)
		}
	}
}
