package binfmt

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRandomCorruptionNeverPanics hammers the reader with randomly mutated
// containers: every mutation must surface as an error (or, for mutations in
// non-load-bearing bytes, a clean read) — never a panic or a hang. This is
// the safety property a loader of multi-gigabyte binary files must have.
func TestRandomCorruptionNeverPanics(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), pristine...)
		// 1-4 random byte mutations.
		for m := 0; m < 1+rng.Intn(4); m++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: reader panicked: %v", trial, r)
				}
			}()
			_, _ = readBoth(t, data)
		}()
	}
}

// TestRandomTruncationNeverPanics checks the same property for truncation
// at every kind of boundary.
func TestRandomTruncationNeverPanics(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(len(pristine))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d panicked: %v", n, r)
				}
			}()
			if _, err := readBoth(t, pristine[:n]); err == nil {
				t.Fatalf("truncation at %d of %d accepted", n, len(pristine))
			}
		}()
	}
}

// TestGarbageInputNeverPanics feeds arbitrary bytes.
func TestGarbageInputNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 100; trial++ {
		data := make([]byte, rng.Intn(4096))
		rng.Read(data)
		// Half the trials get a valid magic+version prefix to reach the
		// section parser.
		if trial%2 == 0 && len(data) >= 8 {
			copy(data, magic[:])
			data[4], data[5], data[6], data[7] = Version, 0, 0, 0
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("garbage trial %d panicked: %v", trial, r)
				}
			}()
			_, _ = readBoth(t, data)
		}()
	}
}
