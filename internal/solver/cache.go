package solver

import (
	"container/list"
	"context"
	"sync/atomic"
	"time"
)

// CachedSolver memoizes Check results keyed by an incremental digest of the
// constraint conjunction. KLEE caches solver queries for the same reason:
// symbolic execution re-issues many identical path-condition prefixes.
//
// Layers, cheapest first:
//
//  1. a bounded LRU of exact conjunctions (digest-keyed, with the stored
//     conjunction verified on every hit so an FNV-64 collision can never
//     return a wrong verdict);
//  2. an optional per-run SharedCache consulted before solving, so
//     parallel candidate verifications reuse each other's work;
//  3. the underlying Solver.
//
// Every layer answers only exact matches, so a cached verdict and model
// are always the ones a fresh solve would return.
//
// A CachedSolver is single-goroutine like the executor that owns it; only
// the wall-clock accumulator is atomic, so progress snapshots and shared
// concurrent accounting can read it safely (see WallTime).
type CachedSolver struct {
	S *Solver

	// Spill, when set, receives every freshly decided verdict so a
	// persistence layer can write it behind the solver's back. It must
	// never block: callers sit on the executor's hot path. When Shared is
	// also set, physically solved verdicts are spilled by
	// SharedCache.store instead, so each verdict is offered exactly once.
	Spill SpillFunc

	// Origin tags spilled verdicts with the content hash (summary.FnHash)
	// of the function whose branch issued the query. Zero means unknown;
	// the executor updates it as frames change. Purely attributive — it
	// never affects lookups or verdicts, only persistence retention.
	Origin uint64

	// MaxEntries bounds the exact-match LRU; the least recently used entry
	// is evicted when it is full (a hot cache is never dropped wholesale).
	MaxEntries int

	// Shared, when set, is consulted after a local miss and fed after a
	// local solve. Shared results are byte-identical to what a local solve
	// would produce (the solver is deterministic), so enabling it changes
	// wall-clock only — never verdicts, models, or the logical counters.
	Shared *SharedCache

	// Disabled bypasses every cache layer (ablation support): each query
	// goes straight to the solver, with only the logical counters and the
	// wall clock maintained.
	Disabled bool

	// Hits/Misses count the exact-match layer; Evictions counts capacity
	// evictions only — entries dropped because the LRU was full.
	// Invalidations counts entries removed because their origin function's
	// bytecode changed (InvalidateOrigins); keeping the two apart lets the
	// solver-cache ablation attribute misses correctly. All are
	// deterministic per query sequence.
	Hits, Misses  int
	Evictions     int
	Invalidations int

	// Queries are the logical solver verdicts: one Check per query that
	// missed the local LRU, split by outcome. Unlike S.Stats (which
	// counts physical solves), Queries is independent of whether the Shared
	// cache served the result, so Report counters built from it stay
	// deterministic across sequential, parallel, shared and unshared runs.
	Queries Stats

	// SharedHits/SharedMisses count Shared-layer lookups. They are timing
	// dependent in parallel runs (whoever solves first populates the cache)
	// and are surfaced through obs metrics, never through Report.
	SharedHits, SharedMisses int

	// wallNanos accumulates wall-clock time spent inside physical solver
	// checks, atomically (shared concurrent readers, and writers that
	// record from multiple goroutines in tests, must not race).
	wallNanos atomic.Int64

	lru lruCache
}

// SpillFunc receives one decided verdict for asynchronous persistence:
// the conjunction's digest, its intrinsic-bounds signature, the FnHash of
// the function that issued the query (0 when unknown), the constraint
// multiset, and the verdict with its model (nil unless Sat).
// Implementations must not block and must copy what they keep.
type SpillFunc func(d Digest, bsig, origin uint64, cons []Constraint, res Result, model Model)

// NewCached wraps s with a query cache.
func NewCached(s *Solver) *CachedSolver {
	return &CachedSolver{S: s, MaxEntries: DefaultCacheEntries}
}

// DefaultCacheEntries is the default exact-match LRU capacity.
const DefaultCacheEntries = 1 << 16

// WallTime returns the wall clock accumulated inside physical solver
// checks. Cache hits are excluded, so the sum is the real solving effort
// (Report/HTML "solver time" column).
func (cs *CachedSolver) WallTime() time.Duration {
	return time.Duration(cs.wallNanos.Load())
}

// recordWall adds one solve's duration to the wall clock (atomic: safe
// under shared concurrent use).
func (cs *CachedSolver) recordWall(d time.Duration) { cs.wallNanos.Add(int64(d)) }

// note tallies a logical solver verdict.
func (st *Stats) note(res Result) {
	st.Checks++
	switch res {
	case Sat:
		st.Sat++
	case Unsat:
		st.Unsat++
	default:
		st.Unknown++
	}
}

// Check is Solver.Check with memoization.
func (cs *CachedSolver) Check(t *VarTable, cons []Constraint) (Result, Model) {
	return cs.CheckCtx(context.Background(), t, cons)
}

// CheckCtx is Check under a context. Results produced while the context is
// cancelled are not cached: such queries resolve to Unknown as an artifact
// of cancellation, and memoizing them would poison later retries of the
// same conjunction.
func (cs *CachedSolver) CheckCtx(ctx context.Context, t *VarTable, cons []Constraint) (Result, Model) {
	return cs.checkDigest(ctx, t, cons, DigestOf(cons))
}

// checkDigest is the cache pipeline: local LRU, then the shared cache,
// then the solver. d is the digest of cons.
func (cs *CachedSolver) checkDigest(ctx context.Context, t *VarTable, cons []Constraint, d Digest) (Result, Model) {
	if cs.Disabled {
		start := time.Now()
		res, model := cs.S.CheckCtx(ctx, t, cons)
		cs.recordWall(time.Since(start))
		cs.Queries.note(res)
		return res, model
	}
	// The local LRU holds only this executor's own queries, all over one
	// fixed VarTable, so a verified conjunction match implies matching
	// intrinsic bounds — no signature needed on the lookup hot path.
	if res, m, ok := cs.lru.lookup(d, cons); ok {
		cs.Hits++
		return res, m
	}
	cs.Misses++
	// The bounds signature matters only across executors (the SharedCache
	// refuses hits whose variables carry different intrinsic bounds) and
	// for persistence (spilled entries carry it so a later process can
	// match exactly), so it is computed lazily, on a miss.
	var bsig uint64
	if cs.Shared != nil || cs.Spill != nil {
		bsig = boundsSig(t, cons)
	}
	var res Result
	var model Model
	served := false
	if cs.Shared != nil {
		if r, m, ok := cs.Shared.lookup(d, bsig, cons); ok {
			res, model, served = r, m, true
			cs.SharedHits++
		} else {
			cs.SharedMisses++
		}
	}
	if !served {
		start := time.Now()
		res, model = cs.S.CheckCtx(ctx, t, cons)
		cs.recordWall(time.Since(start))
		if ctx != nil && ctx.Err() != nil {
			cs.Queries.note(res)
			return res, model
		}
		if cs.Shared != nil {
			cs.Shared.store(d, bsig, cs.Origin, cons, res, model)
		} else {
			cs.spill(d, bsig, cons, res, model)
		}
	}
	cs.Queries.note(res)
	cs.store(d, bsig, cons, res, model)
	return res, model
}

// store inserts the verdict into the exact-match LRU, counting evictions.
func (cs *CachedSolver) store(d Digest, bsig uint64, cons []Constraint, res Result, model Model) {
	max := cs.MaxEntries
	if max <= 0 {
		max = DefaultCacheEntries
	}
	cs.Evictions += cs.lru.add(d, bsig, cs.Origin, cons, res, model, max)
}

// spill offers a freshly decided verdict to the persistence hook, if any.
func (cs *CachedSolver) spill(d Digest, bsig uint64, cons []Constraint, res Result, model Model) {
	if cs.Spill != nil {
		cs.Spill(d, bsig, cs.Origin, cons, res, model)
	}
}

// CacheEntry is one exported verdict of the exact-match cache, in the form
// ExportCache emits and ImportCache accepts. Used by the checkpoint codec
// to ship a warm cache across a process boundary: a resumed executor then
// replays the captured run's exact hit/miss history, which is what makes
// its solver counters — not just its verdicts — match an uninterrupted
// run's.
type CacheEntry struct {
	Digest Digest
	BSig   uint64
	Origin uint64
	Cons   []Constraint
	Res    Result
	Model  Model
}

// ExportCache returns the exact-match cache's entries, least recently used
// first, so importing them in that order reproduces the recency order.
// The Cons and Model values alias cache-internal storage; callers must not
// mutate them.
func (cs *CachedSolver) ExportCache() []CacheEntry {
	if cs.lru.ll == nil {
		return nil
	}
	out := make([]CacheEntry, 0, cs.lru.ll.Len())
	for el := cs.lru.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		out = append(out, CacheEntry{Digest: e.d, BSig: e.bsig, Origin: e.origin, Cons: e.cons, Res: e.res, Model: e.model})
	}
	return out
}

// ImportCache seeds the exact-match cache with entries in order (the last
// entry becomes the most recently used). Counters are untouched; capacity
// eviction applies as usual.
func (cs *CachedSolver) ImportCache(entries []CacheEntry) {
	max := cs.MaxEntries
	if max <= 0 {
		max = DefaultCacheEntries
	}
	for _, e := range entries {
		cs.lru.add(e.Digest, e.BSig, e.Origin, e.Cons, e.Res, e.Model, max)
	}
}

// InvalidateOrigins drops every LRU entry whose origin function is in dead
// (a set of stale FnHash values), returning the number removed. Counted
// separately from capacity evictions so telemetry can attribute later
// misses to code change rather than cache pressure.
func (cs *CachedSolver) InvalidateOrigins(dead map[uint64]bool) int {
	n := cs.lru.invalidateOrigins(dead)
	cs.Invalidations += n
	return n
}

// --- exact-match LRU ---

// cacheEntry stores a decided conjunction with everything needed to make a
// hit collision-proof: the canonical constraint multiset and the intrinsic
// bounds signature of its variables. origin is the FnHash of the function
// that issued the query (0 unknown) — attribution for persistence and
// invalidation, never part of the match. persisted marks entries seeded
// from a disk cache, so warm-start hits can be counted apart.
type cacheEntry struct {
	d         Digest
	bsig      uint64
	origin    uint64
	cons      []Constraint
	res       Result
	model     Model
	persisted bool
}

// lruCache is a digest-keyed LRU. The zero value is ready to use. It is
// shared by the per-executor cache (no lock) and, per shard under a mutex,
// by SharedCache.
type lruCache struct {
	ll  *list.List // front: most recently used; values are *cacheEntry
	idx map[Digest]*list.Element
}

func (c *lruCache) init() {
	if c.ll == nil {
		c.ll = list.New()
		c.idx = make(map[Digest]*list.Element)
	}
}

// lookup returns the verdict stored for the conjunction. A digest match
// with a different stored conjunction (hash collision) is a miss, never a
// wrong answer. This is the single-table path: all entries and queries
// come from one VarTable, so a conjunction match implies matching
// intrinsic bounds.
func (c *lruCache) lookup(d Digest, cons []Constraint) (Result, Model, bool) {
	if c.ll == nil {
		return Unknown, nil, false
	}
	el, ok := c.idx[d]
	if !ok {
		return Unknown, nil, false
	}
	e := el.Value.(*cacheEntry)
	if !sameConjunction(e.cons, cons) {
		return Unknown, nil, false
	}
	c.ll.MoveToFront(el)
	return e.res, e.model, true
}

// lookupBsig is lookup for caches shared across VarTables: a hit must also
// carry the same intrinsic-bounds signature, because a Var ID recurring in
// another executor's table can be bounded differently and flip the verdict.
// The entry itself is returned (nil on miss) so callers can read
// attribution fields like persisted.
func (c *lruCache) lookupBsig(d Digest, bsig uint64, cons []Constraint) *cacheEntry {
	if c.ll == nil {
		return nil
	}
	el, ok := c.idx[d]
	if !ok {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.bsig != bsig || !sameConjunction(e.cons, cons) {
		return nil
	}
	c.ll.MoveToFront(el)
	return e
}

// add inserts (or refreshes) an entry and returns the number of evictions
// performed to respect max.
func (c *lruCache) add(d Digest, bsig, origin uint64, cons []Constraint, res Result, model Model, max int) int {
	c.init()
	if el, ok := c.idx[d]; ok {
		// Digest already present: keep the newest conjunction for this
		// digest (collisions are astronomically rare; the verified lookup
		// keeps this safe either way).
		e := el.Value.(*cacheEntry)
		e.bsig, e.origin, e.cons, e.res, e.model = bsig, origin, append([]Constraint(nil), cons...), res, model
		c.ll.MoveToFront(el)
		return 0
	}
	e := &cacheEntry{d: d, bsig: bsig, origin: origin, cons: append([]Constraint(nil), cons...), res: res, model: model}
	c.idx[d] = c.ll.PushFront(e)
	evicted := 0
	for c.ll.Len() > max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.idx, back.Value.(*cacheEntry).d)
		evicted++
	}
	return evicted
}

// entry returns the entry stored under d without touching recency (nil
// when absent).
func (c *lruCache) entry(d Digest) *cacheEntry {
	if c.ll == nil {
		return nil
	}
	el, ok := c.idx[d]
	if !ok {
		return nil
	}
	return el.Value.(*cacheEntry)
}

// invalidateOrigins removes every entry whose origin is in dead, returning
// the count removed.
func (c *lruCache) invalidateOrigins(dead map[uint64]bool) int {
	if c.ll == nil || len(dead) == 0 {
		return 0
	}
	removed := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); dead[e.origin] {
			c.ll.Remove(el)
			delete(c.idx, e.d)
			removed++
		}
		el = next
	}
	return removed
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	if c.ll == nil {
		return 0
	}
	return c.ll.Len()
}
