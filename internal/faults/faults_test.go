package faults

import (
	"context"
	"errors"
	"io/fs"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/ingest"
)

func memSource() (ingest.Source, map[string][]byte) {
	chunks := map[string][]byte{
		"a.export.csv":   []byte("row1\nrow2\nrow3\n"),
		"b.mentions.csv": []byte("m1\nm2\n"),
	}
	return ingest.Mem(chunks), chunks
}

func TestPlanFaults(t *testing.T) {
	src, chunks := memSource()
	in := New(src, Config{
		Plan: map[string]Fault{
			"a.export.csv":   Missing,
			"b.mentions.csv": Truncated,
		},
	})
	ctx := context.Background()
	if _, err := in.ReadChunk(ctx, "a.export.csv"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing fault: %v", err)
	}
	data, err := in.ReadChunk(ctx, "b.mentions.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(chunks["b.mentions.csv"]) || len(data) == 0 {
		t.Fatalf("truncated fault returned %d of %d bytes", len(data), len(chunks["b.mentions.csv"]))
	}
}

func TestCorruptedFaultBreaksChecksum(t *testing.T) {
	src, chunks := memSource()
	orig := chunks["a.export.csv"]
	in := New(src, Config{Plan: map[string]Fault{"a.export.csv": Corrupted}, Seed: 7})
	data, err := in.ReadChunk(context.Background(), "a.export.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(orig) {
		t.Fatalf("corruption changed length %d vs %d", len(data), len(orig))
	}
	if gdelt.Checksum32(data) == gdelt.Checksum32(orig) {
		t.Fatal("corrupted chunk still matches original checksum")
	}
	// Deterministic: a second injector with the same seed flips the same bytes.
	src2, _ := memSource()
	in2 := New(src2, Config{Plan: map[string]Fault{"a.export.csv": Corrupted}, Seed: 7})
	data2, err := in2.ReadChunk(context.Background(), "a.export.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("corruption not deterministic across injectors")
	}
}

func TestProbabilisticAssignmentDeterministic(t *testing.T) {
	src, _ := memSource()
	cfg := Config{Seed: 99, MissingProb: 0.3, CorruptedProb: 0.3}
	a, b := New(src, cfg), New(src, cfg)
	paths := []string{"x1.csv", "x2.csv", "x3.csv", "x4.csv", "x5.csv", "x6.csv", "x7.csv", "x8.csv"}
	var assigned []Fault
	for _, p := range paths {
		fa, fb := a.FaultFor(p), b.FaultFor(p)
		if fa != fb {
			t.Fatalf("%s: assignment differs %v vs %v", p, fa, fb)
		}
		assigned = append(assigned, fa)
	}
	// With 60% total fault probability over 8 paths, expect at least one
	// fault and at least one healthy path for this seed.
	var faulty, healthy bool
	for _, f := range assigned {
		if f == None {
			healthy = true
		} else {
			faulty = true
		}
	}
	if !faulty || !healthy {
		t.Fatalf("degenerate assignment %v", assigned)
	}
	// A different seed reassigns.
	c := New(src, Config{Seed: 100, MissingProb: 0.3, CorruptedProb: 0.3})
	diff := false
	for i, p := range paths {
		if c.FaultFor(p) != assigned[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seed produced identical assignment")
	}
}

func TestPassThrough(t *testing.T) {
	src, chunks := memSource()
	in := New(src, Config{})
	data, err := in.ReadChunk(context.Background(), "a.export.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(chunks["a.export.csv"]) {
		t.Fatal("no-fault injector must pass chunks through untouched")
	}
}
