package dist

import (
	"testing"

	"gdeltmine/internal/baseline"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
)

// The shared-versus-distributed ablation behind Section IV's design choice:
// "the large memory of the system ... obviates the need for inter-node
// communication, which constitutes a potential performance bottleneck."
// The distributed path pays message serialization and gather latency that
// the shared-memory engine does not.

func BenchmarkSharedMemoryCrossCountry(b *testing.B) {
	db := testDB(b)
	e := engine.New(db)
	nc := len(gdelt.Countries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := baseline.CrossCount(e, nc, nc, func(row int) (int, int) {
			ev := db.Mentions.EventRow[row]
			return int(db.Events.Country[ev]), int(db.SourceCountry[db.Mentions.Source[row]])
		})
		if m.Sum() == 0 {
			b.Fatal("empty")
		}
	}
}

func benchClusterCross(b *testing.B, nodes int) {
	db := testDB(b)
	cl := NewCluster(db, nodes)
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.CrossCountry(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cl.BytesTransferred())/float64(b.N), "msg-bytes/op")
}

func BenchmarkDistributedCrossCountry2Nodes(b *testing.B) { benchClusterCross(b, 2) }
func BenchmarkDistributedCrossCountry4Nodes(b *testing.B) { benchClusterCross(b, 4) }
func BenchmarkDistributedCrossCountry8Nodes(b *testing.B) { benchClusterCross(b, 8) }
