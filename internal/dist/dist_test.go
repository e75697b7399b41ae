package dist

import (
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/store"
)

var cachedDB *store.DB

func testDB(t testing.TB) *store.DB {
	t.Helper()
	if cachedDB == nil {
		c, err := gen.Generate(gen.Small())
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		cachedDB = res.DB
	}
	return cachedDB
}

func TestCrossCountryMatchesSharedMemory(t *testing.T) {
	db := testDB(t)
	want, err := queries.CountryQuery(engine.New(db))
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 7} {
		cl := NewCluster(db, nodes)
		got, err := cl.CrossCountry()
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Data {
			if got.Data[i] != want.Cross.Data[i] {
				t.Fatalf("nodes=%d cell %d: %d want %d", nodes, i, got.Data[i], want.Cross.Data[i])
			}
		}
		if cl.BytesTransferred() == 0 {
			t.Fatalf("nodes=%d: no communication measured", nodes)
		}
		cl.Close()
	}
}

func TestCommunicationGrowsWithNodes(t *testing.T) {
	db := testDB(t)
	volume := func(nodes int) int64 {
		cl := NewCluster(db, nodes)
		defer cl.Close()
		if _, err := cl.CrossCountry(); err != nil {
			t.Fatal(err)
		}
		return cl.BytesTransferred()
	}
	v1, v8 := volume(1), volume(8)
	// Gathering 8 partial matrices costs more traffic than gathering 1 —
	// the inter-node bottleneck the paper's shared-memory design avoids.
	if v8 <= v1 {
		t.Fatalf("8-node traffic %d not above 1-node %d", v8, v1)
	}
}

func TestClusterLifecycle(t *testing.T) {
	db := testDB(t)
	cl := NewCluster(db, 0) // clamps to 1
	if len(cl.nodes) != 1 {
		t.Fatalf("nodes %d", len(cl.nodes))
	}
	cl.Close()
	cl.Close() // idempotent
	if _, err := cl.CrossCountry(); err == nil {
		t.Fatal("query on closed cluster should fail")
	}
}

func TestMessageCodec(t *testing.T) {
	vals := []int64{0, 1, -1, 1 << 40, -(1 << 40)}
	msg := encodeInt64s(vals)
	got, err := decodeInt64s(msg, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %d want %d", i, got[i], vals[i])
		}
	}
	if _, err := decodeInt64s(msg[:2], len(vals)); err == nil {
		t.Fatal("truncated message accepted")
	}
	if _, err := decodeInt64s(append(msg, 0), len(vals)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
