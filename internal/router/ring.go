package router

import (
	"cmp"
	"hash/fnv"
	"slices"
)

// The affinity order ranks the fleet per query by rendezvous (highest
// random weight) hashing: every replica scores the query by hashing the
// query key's hash with its own ID's, and the preference order is the
// replicas by descending score. Identical queries therefore rank the same
// primary replica first, concentrating result-cache hits instead of
// spraying them, and removing one replica moves only the keys it was
// primary for: every other replica's score for a key is unchanged.

// ring is an immutable rendezvous ranking over replica indices.
type ring struct {
	ids []uint64 // hash64 of each replica ID, by index
}

// buildRing hashes each replica ID once.
func buildRing(ids []string) *ring {
	r := &ring{ids: make([]uint64, len(ids))}
	for i, id := range ids {
		r.ids[i] = hash64(id)
	}
	return r
}

// successors returns the n highest-scoring replica indices for key,
// best first, ties broken by index — a query's preference order when n
// covers every replica.
func (r *ring) successors(key string, n int) []int {
	if len(r.ids) == 0 {
		return nil
	}
	h := hash64(key)
	scores := make([]uint64, len(r.ids))
	order := make([]int, len(r.ids))
	for i, id := range r.ids {
		scores[i] = mix64(h ^ id)
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(scores[b], scores[a]) })
	return order[:min(n, len(order))]
}

// hash64 hashes a string to 64 bits. FNV-1a alone clusters badly on
// short strings that differ only in a suffix digit ("r0" vs "r1"); the
// murmur-style finalizer scatters those near-collisions.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the 64-bit avalanche finalizer from MurmurHash3/SplitMix64.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
