package registry

import (
	"fmt"

	"gdeltmine/internal/qcache"
	"gdeltmine/internal/shard"
)

// Executor runs registered queries through an optional result cache. It is
// the one place that knows how a descriptor execution becomes a cache key:
// kind, canonical params, and the view's interval window with the version
// vector of the parts the answer reads. A nil Executor (or nil Cache)
// executes directly.
type Executor struct {
	Cache *qcache.Cache
	// Encode, when set, turns each computed answer into the bytes a
	// transport sends: ExecuteSharded then returns a Body, encoded once
	// per computation, and the cache and its single flight hold that body
	// instead of the value, so a hit costs no encoding. Archive halves
	// stay values under their archive key, because Finish reads them.
	Encode func(any) (Body, error)
}

// Body is an answer as Executor.Encode encoded it. A cached Body is shared
// by every request that hits it or joins its flight; callers only read it.
type Body []byte

// ExecuteSharded runs descriptor d with resolved params p against view v,
// returning the (possibly shared, treat-as-immutable) result — a Body when
// x has an encoder — and how it was obtained. Results of cancelled
// computations are never encoded or cached and surface as the context's
// error, so transports keep their timeout semantics;
// waiters joining a cancelled leader retry as the new leader while their
// own context is live (qcache.Do's retry loop). The cache key's Window
// embeds the version vector of the parts the answer reads and Version is
// the max over them (shard.DB.CacheWindow): every part for most kinds, only
// the shards the window overlaps for a WindowOnly kind, so a tail-shard
// append invalidates every answer that could have changed while cold-shard
// window-only entries stay warm. A kind with an Archive half computes it
// through the cache too, under its own key (see archive), so only its
// Finish runs per window and parameter set.
func (x *Executor) ExecuteSharded(d *Descriptor, v *shard.View, p Params) (any, qcache.Outcome, error) {
	if d.RunSharded == nil {
		return nil, qcache.Bypass, fmt.Errorf("registry: kind %q has no sharded execution", d.Kind)
	}
	run := func() (any, error) { return d.RunSharded(v, p) }
	if x == nil || x.Cache == nil {
		val, err := x.encode(live(v, run))
		return val, qcache.Bypass, err
	}
	if d.Archive != nil {
		run = func() (any, error) {
			a, err := x.archive(d, v)
			if err != nil {
				return nil, err
			}
			return d.Finish(v, p, a)
		}
	}
	from, to := v.Window()
	window, version := v.DB().CacheWindow(from, to, d.WindowOnly)
	key := qcache.Key{
		Kind:    d.Kind,
		Params:  d.Canonical(p),
		Window:  window,
		Version: version,
	}
	return x.Cache.Do(v.Context(), key, func() (any, error) { return x.encode(live(v, run)) })
}

// encode turns a live answer into its Body when x has an encoder and
// passes values and errors through otherwise.
func (x *Executor) encode(val any, err error) (any, error) {
	if err != nil || x == nil || x.Encode == nil {
		return val, err
	}
	body, err := x.Encode(val)
	if err != nil {
		return nil, err
	}
	return body, nil
}

// archive returns d's Archive value for v's snapshot through the cache. The
// value reads every part whatever the window or parameters, so its key
// carries no params and the version vector of every part
// (shard.DB.ArchiveWindow): one entry serves every window and k of a
// snapshot, and any append retires it.
func (x *Executor) archive(d *Descriptor, v *shard.View) (any, error) {
	a, _, err := x.Cache.Do(v.Context(), archiveKey(d, v.DB()), func() (any, error) {
		return live(v, func() (any, error) { return d.Archive(v), nil })
	})
	return a, err
}

// archiveKey is the cache key of d's Archive value over db. No registered
// kind name contains "/", so the kind component cannot collide.
func archiveKey(d *Descriptor, db *shard.DB) qcache.Key {
	window, version := db.ArchiveWindow()
	return qcache.Key{Kind: d.Kind + "/archive", Window: window, Version: version}
}

// live runs f and lets v's context error win over its value: a cancelled
// scan returns a partial aggregate, and caching it would serve truncated
// results forever.
func live(v *shard.View, f func() (any, error)) (any, error) {
	val, err := f()
	if err != nil {
		return nil, err
	}
	if cerr := v.Context().Err(); cerr != nil {
		return nil, cerr
	}
	return val, nil
}
