package registry

import (
	"fmt"

	"gdeltmine/internal/qcache"
	"gdeltmine/internal/shard"
)

// Executor runs registered queries through an optional result cache. It is
// the one place that knows how a descriptor execution becomes a cache key:
// kind, canonical params, the view's interval window with the version
// vector of the shards it overlaps, and the view's shard subset. A nil
// Executor (or nil Cache) executes directly.
type Executor struct {
	Cache *qcache.Cache
}

// ExecuteSharded runs descriptor d with resolved params p against view v,
// returning the (possibly shared, treat-as-immutable) result and how it was
// obtained. Results of cancelled computations are never cached and surface
// as the context's error, so transports keep their timeout semantics;
// waiters joining a cancelled leader retry as the new leader while their
// own context is live (qcache.Do's retry loop). The cache key's Window
// embeds the per-shard version vector of the overlapping shards (see
// shard.DB.WindowVersionKey) and Version is the max over them, so a
// tail-shard append invalidates exactly the entries whose windows touch
// the tail while cold-shard entries stay warm. A view restricted to a
// shard subset (degraded serving) additionally carries its subset as the
// key's Scope, so a partial result is never stored under — or served for —
// the full-coverage key.
func (x *Executor) ExecuteSharded(d *Descriptor, v *shard.View, p Params) (any, qcache.Outcome, error) {
	if d.RunSharded == nil {
		return nil, qcache.Bypass, fmt.Errorf("registry: kind %q has no sharded execution", d.Kind)
	}
	compute := func() (any, error) {
		val, err := d.RunSharded(v, p)
		if err != nil {
			return nil, err
		}
		// A cancelled scan returns a partial aggregate; poisoning the cache
		// with it would serve truncated results forever. The context error
		// wins over the value.
		if cerr := v.Context().Err(); cerr != nil {
			return nil, cerr
		}
		return val, nil
	}
	if x == nil || x.Cache == nil {
		val, err := compute()
		return val, qcache.Bypass, err
	}
	from, to := v.Window()
	key := qcache.Key{
		Kind:    d.Kind,
		Params:  d.Canonical(p),
		Window:  v.DB().WindowVersionKey(from, to),
		Version: v.DB().VersionMax(from, to),
		Scope:   v.ShardScope(),
	}
	return x.Cache.Do(v.Context(), key, compute)
}
