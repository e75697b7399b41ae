package router

import (
	"reflect"
	"strconv"
	"testing"
)

func TestRingSuccessorsDeterministicAndDistinct(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	a := buildRing(ids)
	b := buildRing(ids)
	for _, key := range []string{"q|/api/v1/stats|", "q|/api/v1/count|from=1"} {
		got := a.successors(key, 4)
		if !reflect.DeepEqual(got, b.successors(key, 4)) {
			t.Fatalf("%s: ring order not deterministic", key)
		}
		if len(got) != 4 {
			t.Fatalf("%s: got %d replicas, want 4", key, len(got))
		}
		seen := map[int]bool{}
		for _, idx := range got {
			if seen[idx] {
				t.Fatalf("%s: replica %d repeated in %v", key, idx, got)
			}
			seen[idx] = true
		}
	}
}

func TestRingSpreadsPrimaries(t *testing.T) {
	r := buildRing([]string{"r0", "r1", "r2", "r3"})
	primaries := map[int]int{}
	for i := 0; i < 200; i++ {
		primaries[r.successors("key-"+strconv.Itoa(i), 1)[0]]++
	}
	for idx := 0; idx < 4; idx++ {
		if primaries[idx] == 0 {
			t.Fatalf("replica %d never primary across 200 keys: %v", idx, primaries)
		}
	}
}

func TestRingSuccessorsClampAndEmpty(t *testing.T) {
	if got := buildRing(nil).successors("k", 2); got != nil {
		t.Fatalf("empty ring: got %v", got)
	}
	if got := buildRing([]string{"a", "b"}).successors("k", 5); len(got) != 2 {
		t.Fatalf("want clamp to 2 replicas, got %v", got)
	}
}

// TestRingRemovalMovesOnlyItsKeys: removing one replica of four changes
// the primary of exactly the keys that replica was primary for, and each
// of those keys moves to its old second choice.
func TestRingRemovalMovesOnlyItsKeys(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	full := buildRing(ids)
	for gone := range ids {
		rest := append(append([]string(nil), ids[:gone]...), ids[gone+1:]...)
		less := buildRing(rest)
		owned := 0
		for i := 0; i < 2000; i++ {
			key := "key-" + strconv.Itoa(i)
			order := full.successors(key, len(ids))
			before, after := ids[order[0]], rest[less.successors(key, 1)[0]]
			if order[0] == gone {
				owned++
				if want := ids[order[1]]; after != want {
					t.Fatalf("without %s: %s moved to %s, want its second choice %s", ids[gone], key, after, want)
				}
			} else if after != before {
				t.Fatalf("without %s: %s moved from %s to %s", ids[gone], key, before, after)
			}
		}
		if owned == 0 {
			t.Fatalf("%s was primary for none of 2000 keys", ids[gone])
		}
	}
}

func TestValidateTopology(t *testing.T) {
	if err := validateTopology([]Replica{{ID: "r0"}, {ID: "r1"}}); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
	for _, reps := range [][]Replica{
		nil,                      // no replicas
		{{ID: "r0"}, {ID: ""}},   // a replica without an ID
		{{ID: "r0"}, {ID: "r0"}}, // duplicate IDs
	} {
		if err := validateTopology(reps); err == nil {
			t.Fatalf("validateTopology(%v) accepted", reps)
		}
	}
}
