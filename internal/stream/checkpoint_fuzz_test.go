package stream

import (
	"encoding/json"
	"testing"

	"gdeltmine/internal/gdelt"
)

// FuzzCheckpoint fuzzes the checkpoint decoder the way a resumed feeder
// meets it: JSON off disk, then FromCheckpoint. Nothing may panic. A state
// no monitor can write is an error, so every monitor that is restored must
// write a checkpoint that restores again, and must take its next mention
// without its median estimator's priming buffer growing past five.
func FuzzCheckpoint(f *testing.F) {
	cp := tornMonitor(f).Checkpoint()
	seed, err := json.Marshal(cp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, mutate := range []func(*Checkpoint){
		func(c *Checkpoint) { c.Median.Q = 0 },
		func(c *Checkpoint) { c.Median.Q = 1.5 },
		func(c *Checkpoint) { c.Median.Primed, c.Median.InitBuf = false, []float64{1, 2, 3, 4, 5} },
		func(c *Checkpoint) { c.Chunks = []int32{-1 << 31, 1<<31 - 1} },
	} {
		c := *cp
		mutate(&c)
		data, err := json.Marshal(&c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return
		}
		m, err := FromCheckpoint(&cp)
		if err != nil {
			return
		}
		if q := cp.Median.Q; !(q > 0 && q < 1) {
			t.Fatalf("restored a median quantile %v outside (0, 1)", q)
		}
		if _, err := FromCheckpoint(m.Checkpoint()); err != nil {
			t.Fatalf("a restored monitor wrote a checkpoint it cannot restore: %v", err)
		}
		mn := gdelt.Mention{GlobalEventID: 1, SourceName: "a.com",
			EventTime:   gdelt.IntervalStart(m.base + int64(m.now)),
			MentionTime: gdelt.IntervalStart(m.base + int64(m.now))}
		_ = m.ObserveMention(&mn) // a restored clock far from the epoch may reject it; it must not panic
		if st := m.medianDelay.State(); !st.Primed && len(st.InitBuf) >= 5 {
			t.Fatalf("median estimator holds %d unprimed observations", len(st.InitBuf))
		}
	})
}
