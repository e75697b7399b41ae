package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestInjectorAssignmentDeterministicUnderConcurrency hammers FaultFor from
// many goroutines in shuffled orders and requires every draw to match a
// sequential reference pass — fault assignment must be a pure function of
// (config, path), independent of evaluation order and interleaving.
func TestInjectorAssignmentDeterministicUnderConcurrency(t *testing.T) {
	cfg := Config{
		Seed:        7,
		MissingProb: 0.15, TruncatedProb: 0.15, CorruptedProb: 0.15,
	}
	in := New(nil, cfg)
	const n = 300
	paths := make([]string, n)
	want := make(map[string]Fault, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("chunk-%04d.csv", i)
		want[paths[i]] = in.FaultFor(paths[i])
	}

	const workers = 8
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			order := rand.New(rand.NewSource(seed)).Perm(n)
			for _, i := range order {
				if got := in.FaultFor(paths[i]); got != want[paths[i]] {
					select {
					case errs <- fmt.Sprintf("%s: %v, sequential said %v", paths[i], got, want[paths[i]]):
					default:
					}
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}

	// A fresh injector with the same config reproduces the same plan.
	again := New(nil, cfg)
	for _, p := range paths {
		if again.FaultFor(p) != want[p] {
			t.Fatalf("%s: assignment not stable across injector instances", p)
		}
	}
}

// TestReplicaPlanAssignmentDeterministic pins the replica-level plan to the
// same purity contract: same seed and probabilities, same faults, from any
// number of goroutines.
func TestReplicaPlanAssignmentDeterministic(t *testing.T) {
	plan := ReplicaPlan{Seed: 11, DeadProb: 0.25, SlowProb: 0.25, PartitionProb: 0.25}
	ids := make([]string, 64)
	want := make(map[string]ReplicaFault, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("replica-%02d", i)
		want[ids[i]] = plan.assigned(ids[i])
	}
	classes := map[ReplicaFault]bool{}
	for _, f := range want {
		classes[f] = true
	}
	if len(classes) < 2 {
		t.Fatalf("probabilistic plan produced a single class across %d replicas: %v", len(ids), classes)
	}

	chaos := NewReplicaChaos(plan)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			order := rand.New(rand.NewSource(seed)).Perm(len(ids))
			for _, i := range order {
				if got := chaos.FaultFor(ids[i]); got != want[ids[i]] {
					select {
					case errs <- fmt.Sprintf("%s: %v, plan says %v", ids[i], got, want[ids[i]]):
					default:
					}
					return
				}
			}
		}(int64(w + 100))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestReplicaChaosOverridesWinAndHeal checks the runtime scripting hooks:
// Set overrides the plan, Heal restores it, and explicit Plan entries beat
// the probability draw.
func TestReplicaChaosOverridesWinAndHeal(t *testing.T) {
	plan := ReplicaPlan{
		Seed: 3,
		Plan: map[string]ReplicaFault{"pinned": ReplicaSlow},
	}
	chaos := NewReplicaChaos(plan)
	if got := chaos.FaultFor("pinned"); got != ReplicaSlow {
		t.Fatalf("pinned plan entry: %v, want slow", got)
	}
	if got := chaos.FaultFor("other"); got != ReplicaHealthy {
		t.Fatalf("unplanned replica with zero probs: %v, want healthy", got)
	}
	chaos.Set("other", ReplicaDead)
	if got := chaos.FaultFor("other"); got != ReplicaDead {
		t.Fatalf("after Set: %v, want dead", got)
	}
	chaos.Heal("other")
	if got := chaos.FaultFor("other"); got != ReplicaHealthy {
		t.Fatalf("after Heal: %v, want healthy", got)
	}
	if d := NewReplicaChaos(ReplicaPlan{}).plan.SlowDelay; d != 50*time.Millisecond {
		t.Fatalf("default SlowDelay %v", d)
	}
	if want, got := "dead", ReplicaDead.String(); got != want {
		t.Fatalf("String() %q, want %q", got, want)
	}
}
