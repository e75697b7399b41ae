package parallel

import "gdeltmine/internal/obs"

// Scan-level observability: every parallel loop records how much work it
// covered and how evenly the dynamic scheduler spread it. The imbalance
// ratio is the OpenMP-style load-balance diagnostic the paper's Figure 12
// discussion implies: max grains claimed by one worker divided by the ideal
// equal share. A ratio near 1 means the atomic-cursor scheduling kept all
// workers busy; large ratios flag skewed grains (e.g. postings scans where
// one source dominates).
var (
	mScans = obs.Default.Counter("parallel_scans_total",
		"parallel loops executed (all scheduling modes)")
	mItems = obs.Default.Counter("parallel_items_total",
		"loop iterations covered by parallel scans")
	mGrains = obs.Default.Counter("parallel_grains_total",
		"work grains handed to workers")
	mImbalance = obs.Default.Histogram("parallel_imbalance_ratio",
		"per-scan max worker grain share over the ideal equal share",
		obs.RatioBuckets)
)

// recordScan folds one completed loop into the scan metrics. perWorker
// holds the number of grains each worker claimed; it is nil for serial
// loops, where balance is fixed by construction.
func recordScan(n int, perWorker []int64) {
	mScans.Inc()
	mItems.Add(int64(n))
	if perWorker == nil {
		mGrains.Inc()
		return
	}
	var total, max int64
	for _, g := range perWorker {
		total += g
		if g > max {
			max = g
		}
	}
	mGrains.Add(total)
	if total > 0 && len(perWorker) > 1 {
		mImbalance.Observe(float64(max) * float64(len(perWorker)) / float64(total))
	}
}
