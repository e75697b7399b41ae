package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// The affinity ring orders the fleet per query with consistent hashing:
// every replica contributes defaultVNodes virtual points, a query's key
// hashes to a ring position, and its preference order is the distinct
// replicas clockwise from there. Identical queries therefore hash to the
// same primary replica, concentrating result-cache hits instead of
// spraying them, and adding or removing one replica moves only the keys
// whose arcs it owned.

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// replica index.
type ringPoint struct {
	hash    uint64
	replica int
}

// ring is an immutable consistent hash ring over replica indices.
type ring struct {
	points []ringPoint
	n      int // distinct replicas
}

// defaultVNodes balances primaries to within a few percent for small
// fleets without making ring construction noticeable.
const defaultVNodes = 64

// buildRing places defaultVNodes virtual points per replica ID.
func buildRing(ids []string) *ring {
	r := &ring{n: len(ids), points: make([]ringPoint, 0, len(ids)*defaultVNodes)}
	for i, id := range ids {
		for v := 0; v < defaultVNodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(v)), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		return p.replica < q.replica // total order: ties never flip the order
	})
	return r
}

// successors returns the first n distinct replica indices clockwise from
// key's ring position — a query's preference order when n covers every
// replica.
func (r *ring) successors(key string, n int) []int {
	if r.n == 0 {
		return nil
	}
	if n > r.n {
		n = r.n
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

// hash64 hashes a string onto the ring. FNV-1a alone clusters badly on
// short strings that differ only in a suffix digit ("r0#1" vs "r0#2"),
// which would hand one replica giant contiguous arcs; the murmur-style
// finalizer scatters those near-collisions across the whole ring.
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
