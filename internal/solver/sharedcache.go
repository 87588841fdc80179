package solver

import (
	"sync"
	"sync/atomic"
)

// SharedCache is a process-wide, race-safe query cache shared by the
// per-executor CachedSolvers of parallel candidate verification workers.
// A conjunction solved by one worker is served from here to every other
// worker that asks, so siblings reuse each other's solver effort.
//
// Shared entries are only ever exact, verified matches (digest + intrinsic
// bounds signature + constraint multiset): different executors build
// different VarTables, where the same Var ID can carry different intrinsic
// bounds, and the bounds signature refuses such cross-table hits.
//
// Because the underlying solver is deterministic, serving a shared entry
// returns exactly what a local solve would have; hit/miss counts here are
// timing dependent and belong in obs telemetry, never in Report counters.
type SharedCache struct {
	shards [sharedCacheShards]sharedShard
	// perShard is each shard's LRU capacity.
	perShard int

	// Spill, when set, receives every verdict published through store so a
	// persistence layer can write it out asynchronously. Set before the
	// workers start (it is read without synchronization) and must never
	// block. Seeded (already-persisted) entries are not re-offered.
	Spill SpillFunc

	hits          atomic.Int64
	misses        atomic.Int64
	stores        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	persistHits   atomic.Int64
}

const sharedCacheShards = 16

type sharedShard struct {
	mu  sync.Mutex
	lru lruCache
}

// NewSharedCache returns a shared cache holding up to maxEntries verdicts
// (0 or negative selects DefaultCacheEntries). Capacity is split evenly
// across shards.
func NewSharedCache(maxEntries int) *SharedCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	per := maxEntries / sharedCacheShards
	if per < 1 {
		per = 1
	}
	return &SharedCache{perShard: per}
}

func (sc *SharedCache) shard(d Digest) *sharedShard {
	return &sc.shards[d.Sum%sharedCacheShards]
}

// lookup returns the stored verdict for an exact, verified match.
func (sc *SharedCache) lookup(d Digest, bsig uint64, cons []Constraint) (Result, Model, bool) {
	sh := sc.shard(d)
	sh.mu.Lock()
	e := sh.lru.lookupBsig(d, bsig, cons)
	var res Result = Unknown
	var m Model
	persisted := false
	if e != nil {
		res, m, persisted = e.res, e.model, e.persisted
	}
	sh.mu.Unlock()
	if e != nil {
		sc.hits.Add(1)
		if persisted {
			sc.persistHits.Add(1)
		}
	} else {
		sc.misses.Add(1)
	}
	return res, m, e != nil
}

// store publishes a solved verdict. The conjunction is copied by the LRU,
// so callers may keep mutating their slice. Models are stored as-is: the
// executor never mutates a model in place (extendModel copies), so sharing
// the map across goroutines is read-only and safe.
func (sc *SharedCache) store(d Digest, bsig, origin uint64, cons []Constraint, res Result, model Model) {
	sh := sc.shard(d)
	sh.mu.Lock()
	ev := sh.lru.add(d, bsig, origin, cons, res, model, sc.perShard)
	sh.mu.Unlock()
	sc.stores.Add(1)
	if ev > 0 {
		sc.evictions.Add(int64(ev))
	}
	if sc.Spill != nil {
		sc.Spill(d, bsig, origin, cons, res, model)
	}
}

// Seed inserts a verdict loaded from a persistent store, marking it so
// warm-start hits are counted apart (PersistHits) and so the spill hook
// does not re-offer what is already on disk. Callers must have verified
// the entry (digest recomputation + model check) before seeding.
func (sc *SharedCache) Seed(d Digest, bsig, origin uint64, cons []Constraint, res Result, model Model) {
	sh := sc.shard(d)
	sh.mu.Lock()
	sh.lru.add(d, bsig, origin, cons, res, model, sc.perShard)
	if e := sh.lru.entry(d); e != nil {
		e.persisted = true
	}
	sh.mu.Unlock()
}

// InvalidateOrigins drops every cached verdict whose origin FnHash is in
// dead, returning the number removed (counted as invalidations, not
// evictions).
func (sc *SharedCache) InvalidateOrigins(dead map[uint64]bool) int {
	total := 0
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.Lock()
		total += sh.lru.invalidateOrigins(dead)
		sh.mu.Unlock()
	}
	if total > 0 {
		sc.invalidations.Add(int64(total))
	}
	return total
}

// SharedCacheCounters is a snapshot of a SharedCache's telemetry.
// PersistHits counts hits served by entries seeded from a persistent store
// (a subset of Hits); Invalidations counts entries dropped because their
// origin function changed.
type SharedCacheCounters struct {
	Hits, Misses, Stores, Evictions int64
	PersistHits, Invalidations      int64
}

// Counters snapshots the cache telemetry (approximate under concurrency,
// which is fine: these feed obs metrics, not Report determinism).
func (sc *SharedCache) Counters() SharedCacheCounters {
	return SharedCacheCounters{
		Hits:          sc.hits.Load(),
		Misses:        sc.misses.Load(),
		Stores:        sc.stores.Load(),
		Evictions:     sc.evictions.Load(),
		PersistHits:   sc.persistHits.Load(),
		Invalidations: sc.invalidations.Load(),
	}
}

// Len returns the total number of cached verdicts across shards.
func (sc *SharedCache) Len() int {
	n := 0
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.Lock()
		n += sh.lru.len()
		sh.mu.Unlock()
	}
	return n
}
