// Package dist simulates the distributed-memory deployment the paper names
// as future work ("adding distributed memory capabilities using MPI to
// handle the substantial amount of additional data"): the mention table is
// partitioned row-wise across nodes, each node runs queries strictly over
// its own shard, and partial results travel to the coordinator as
// explicitly serialized messages — the semantics of an MPI gather.
//
// Because messages are really serialized and deserialized, the simulation
// exposes the communication cost that Section IV's single shared-memory
// node avoids; the accompanying benchmark quantifies that overhead against
// the shared-memory engine.
package dist

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/store"
)

// Cluster is a simulated distributed-memory deployment over one dataset.
type Cluster struct {
	nodes     []*node
	bytesSent atomic.Int64
	closed    bool
}

// node owns one contiguous shard of the mention table. Its goroutine is
// the "rank"; it only ever reads rows in [lo, hi).
type node struct {
	db     *store.DB
	lo, hi int
	inbox  chan request
	done   chan struct{}
}

type request struct {
	kind  queryKind
	reply chan []byte // serialized partial result
}

type queryKind int

const (
	qCrossCountry queryKind = iota
	qShutdown
)

// NewCluster partitions the dataset across n nodes and starts one worker
// goroutine per node. n is clamped to [1, mention count].
func NewCluster(db *store.DB, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	if nm := db.Mentions.Len(); n > nm && nm > 0 {
		n = nm
	}
	c := &Cluster{}
	total := db.Mentions.Len()
	for i := 0; i < n; i++ {
		nd := &node{
			db:    db,
			lo:    i * total / n,
			hi:    (i + 1) * total / n,
			inbox: make(chan request, 4),
			done:  make(chan struct{}),
		}
		c.nodes = append(c.nodes, nd)
		go nd.serve()
	}
	return c
}

// BytesTransferred returns the total volume of gathered messages so far —
// the inter-node traffic a shared-memory deployment would not pay.
func (c *Cluster) BytesTransferred() int64 { return c.bytesSent.Load() }

// Close shuts the node goroutines down. The cluster is unusable afterward.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, nd := range c.nodes {
		nd.inbox <- request{kind: qShutdown}
		<-nd.done
	}
}

// scatterGather broadcasts a request and collects the serialized partials.
func (c *Cluster) scatterGather(kind queryKind) ([][]byte, error) {
	if c.closed {
		return nil, fmt.Errorf("dist: cluster is closed")
	}
	replies := make([]chan []byte, len(c.nodes))
	for i, nd := range c.nodes {
		replies[i] = make(chan []byte, 1)
		nd.inbox <- request{kind: kind, reply: replies[i]}
	}
	out := make([][]byte, len(c.nodes))
	for i, ch := range replies {
		msg := <-ch
		c.bytesSent.Add(int64(len(msg)))
		out[i] = msg
	}
	return out, nil
}

// CrossCountry runs the Table VI aggregated query across the cluster: each
// node builds its local country contingency matrix, the coordinator
// deserializes and sums the partials.
func (c *Cluster) CrossCountry() (*matrix.Int64, error) {
	msgs, err := c.scatterGather(qCrossCountry)
	if err != nil {
		return nil, err
	}
	nc := len(gdelt.Countries)
	sum := matrix.NewInt64(nc, nc)
	for _, msg := range msgs {
		part, err := decodeInt64s(msg, nc*nc)
		if err != nil {
			return nil, err
		}
		for i, v := range part {
			sum.Data[i] += v
		}
	}
	return sum, nil
}

// serve is the node main loop: receive, compute locally, serialize, reply.
func (nd *node) serve() {
	defer close(nd.done)
	for req := range nd.inbox {
		switch req.kind {
		case qShutdown:
			return
		case qCrossCountry:
			nc := len(gdelt.Countries)
			local := make([]int64, nc*nc)
			db := nd.db
			for row := nd.lo; row < nd.hi; row++ {
				ev := db.Mentions.EventRow[row]
				r := int(db.Events.Country[ev])
				cc := int(db.SourceCountry[db.Mentions.Source[row]])
				if r >= 0 && cc >= 0 {
					local[r*nc+cc]++
				}
			}
			req.reply <- encodeInt64s(local)
		}
	}
}

// encodeInt64s serializes a partial result the way an MPI program would
// pack a buffer (varint-compressed, since most cells are zero or small).
func encodeInt64s(vals []int64) []byte {
	out := make([]byte, 0, len(vals))
	for _, v := range vals {
		out = binary.AppendVarint(out, v)
	}
	return out
}

func decodeInt64s(msg []byte, n int) ([]int64, error) {
	out := make([]int64, n)
	pos := 0
	for i := 0; i < n; i++ {
		v, w := binary.Varint(msg[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("dist: truncated message at value %d of %d", i, n)
		}
		out[i] = v
		pos += w
	}
	if pos != len(msg) {
		return nil, fmt.Errorf("dist: %d trailing bytes in message", len(msg)-pos)
	}
	return out, nil
}
