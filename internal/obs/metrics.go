package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Standard metric names. Instrumented layers register under these so
// traces from different runs and tools line up; ad-hoc names are allowed
// but the report and CLI dumps are built around this set.
const (
	// Solver effort (internal/solver).
	MetricSolverChecks  = "solver.checks"
	MetricSolverSat     = "solver.sat"
	MetricSolverUnsat   = "solver.unsat"
	MetricSolverUnknown = "solver.unknown"
	MetricCacheHits     = "solver.cache.hits"
	MetricCacheReused   = "solver.cache.reused" // components answered from their records, no lookup
	MetricCacheMisses   = "solver.cache.misses"

	// Query-cache eviction pressure (internal/solver). Evictions is the
	// total entries dropped; the .capacity/.invalidated split attributes
	// them to cache pressure vs code change.
	MetricCacheEvictions           = "solver.cache.evictions"
	MetricCacheEvictionsCapacity   = "solver.cache.evictions.capacity"
	MetricCacheEvictionsInvalidate = "solver.cache.evictions.invalidated"

	// Shared cross-executor cache (parallel candidate verification).
	// Timing dependent under concurrency: telemetry only, never part of
	// the deterministic Report counters.
	MetricSharedCacheHits          = "solver.shared.hits"
	MetricSharedCacheMisses        = "solver.shared.misses"
	MetricSharedCacheStores        = "solver.shared.stores"
	MetricSharedCacheEvictions     = "solver.shared.evictions"
	MetricSharedCacheInvalidations = "solver.shared.invalidations"

	// Persistent cross-run solver cache (internal/solver/persist).
	MetricPersistLoaded      = "solvercache.persist.loaded"       // entries loaded and seeded
	MetricPersistLoadRejects = "solvercache.persist.load_rejects" // verified-on-load rejections
	MetricPersistInvalidated = "solvercache.persist.invalidated"  // entries dropped by FnHash diff/tombstone
	MetricPersistHits        = "solvercache.persist.hits"         // warm-start hits served from loaded entries
	MetricPersistSpilled     = "solvercache.persist.spilled"      // entries written behind Check
	MetricPersistDropped     = "solvercache.persist.dropped"      // spill-channel overflow drops
	MetricPersistDeduped     = "solvercache.persist.deduped"      // spill offers already on disk
	MetricPersistSegments    = "solvercache.persist.segments_sealed"
	MetricPersistBytes       = "solvercache.persist.bytes_written"

	// Memoized statistical phase (core warm start, rides CacheDir).
	MetricStatsCacheHits   = "statscache.hits"   // stats phases replayed from disk
	MetricStatsCacheMisses = "statscache.misses" // stats phases derived and memoized

	// Symbolic execution (internal/symexec).
	MetricSteps         = "exec.steps"
	MetricForks         = "exec.forks"
	MetricPaths         = "exec.paths"
	MetricStatesCreated = "exec.states.created"
	MetricStatesLive    = "exec.states.live" // gauge: peak live states
	MetricStatesPruned  = "exec.states.pruned"
	MetricRevivals      = "exec.revivals"

	// Parallel frontier engine (internal/symexec/frontier.go).
	MetricEpochs          = "exec.epochs"
	MetricEpochFill       = "exec.epoch.fill"       // histogram: states drafted per epoch
	MetricWorkers         = "exec.workers"          // gauge: configured worker count
	MetricWorkerBusyNanos = "exec.workers.busy_ns"  // counter: summed worker busy time
	MetricWorkerUtilPct   = "exec.workers.util_pct" // gauge: busy / (workers × elapsed)
	// Per-slot solver wall split: one counter per draft slot, named
	// "exec.slot.<id>.solver_wall_ns" (see SlotSolverWallMetric). The run
	// total still folds into the executor's SolverTime; the split exists
	// so traces show which lanes carried the solver load.
	MetricSlotSolverWallPrefix = "exec.slot."

	// Distributed dispatch (internal/core/dispatch.go): attempt units
	// executed remotely ("stolen" by a worker process), locally, re-run
	// locally after a worker failure, and workers lost to transport
	// errors. Scheduling telemetry — never part of DetectionDigest.
	MetricDispatchRemote       = "dispatch.units.remote"
	MetricDispatchLocal        = "dispatch.units.local"
	MetricDispatchRedispatched = "dispatch.units.redispatched"
	MetricDispatchWorkersDead  = "dispatch.workers.dead"
	MetricDispatchUnitBytes    = "dispatch.unit.bytes"   // counter: encoded unit payloads shipped
	MetricDispatchResultBytes  = "dispatch.result.bytes" // counter: result payloads received

	// Compositional execution (internal/summary + internal/symexec).
	// Cache hit/miss/mined/failed rates are timing dependent under
	// concurrency (telemetry only); summary.calls/paths and havoc/depth
	// counters mirror the deterministic Result counters.
	MetricSummaryHits    = "summary.hits"
	MetricSummaryMisses  = "summary.misses"
	MetricSummaryMined   = "summary.mined"
	MetricSummaryFailed  = "summary.failed"
	MetricSummaryCalls   = "summary.calls"
	MetricSummaryPaths   = "summary.paths"
	MetricHavocCalls     = "summary.havoc_calls"
	MetricDepthExhausted = "exec.depth_exhausted"

	// Guidance (internal/core): distribution of diverted-hop counts at
	// the moment states are suspended — the τ pressure profile.
	MetricDivertedHops = "guidance.diverted_hops"

	// Candidate verification (internal/core).
	MetricCandidateAttempts   = "candidate.attempts"
	MetricCandidateFound      = "candidate.found"
	MetricCandidateInfeasible = "candidate.infeasible"

	// Corpus collection (internal/monitor): runs kept, their records, and
	// runs executed (kept, discarded past a filled quota, or speculative).
	MetricMonitorRuns         = "monitor.runs"
	MetricMonitorRecords      = "monitor.records"
	MetricMonitorRunsExecuted = "monitor.runs.executed"

	// Analysis-as-a-service daemon (internal/service). Queue depth is a
	// gauge sampled on every admission and dispatch; the job counters
	// split completions by terminal state; wall_ms is the job wall-time
	// histogram (submission to terminal state) whose p50/p99 ride the
	// /metrics exposition. Per-tenant admissions use
	// ServiceTenantMetric(tenant).
	MetricServiceQueueDepth      = "service.queue.depth"
	MetricServiceJobsSubmitted   = "service.jobs.submitted"
	MetricServiceJobsCompleted   = "service.jobs.completed"
	MetricServiceJobsFailed      = "service.jobs.failed"
	MetricServiceJobsCancelled   = "service.jobs.cancelled"
	MetricServiceJobsInterrupted = "service.jobs.interrupted"
	MetricServiceJobsRejected    = "service.jobs.rejected" // queue-full 429s
	MetricServiceJobWallMS       = "service.job.wall_ms"
	MetricServiceIngestRuns      = "service.ingest.runs"
	MetricServiceIngestBytes     = "service.ingest.bytes"
	MetricServiceTenantPrefix    = "service.tenant."

	// Segmented trace store (internal/corpus).
	MetricCorpusRunsAppended   = "corpus.runs.appended"
	MetricCorpusBlocksWritten  = "corpus.blocks.written"
	MetricCorpusSegmentsSealed = "corpus.segments.sealed"
	MetricCorpusBytesWritten   = "corpus.bytes.written" // compressed, sealed segments only
	MetricCorpusCompactions    = "corpus.compactions"
	MetricCorpusScanRuns       = "corpus.scan.runs"
	MetricCorpusScanBytes      = "corpus.scan.bytes" // compressed bytes streamed by iterators
)

// HopBuckets is the standard bucketing for MetricDivertedHops: fine near
// zero (on-path states) and coarser toward and beyond typical τ values.
var HopBuckets = []int64{0, 1, 2, 3, 5, 8, 13, 21}

// ServiceJobWallBuckets is the standard bucketing for MetricServiceJobWallMS:
// fine under a second (cache-warm small jobs) and coarser out to the
// minutes a cold guided run can take.
var ServiceJobWallBuckets = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}

// ServiceTenantMetric names the per-tenant admission counter for one
// tenant ID, so fairness is observable per tenant in /metrics.
func ServiceTenantMetric(tenant string) string {
	return MetricServiceTenantPrefix + tenant + ".admitted"
}

// SlotSolverWallMetric names the per-slot solver wall counter for one
// frontier draft slot. Slot ids are stable within a run (0..EpochWidth-1),
// so a trace's slot counters can be compared across epochs.
func SlotSolverWallMetric(slot int) string {
	return fmt.Sprintf("%s%d.solver_wall_ns", MetricSlotSolverWallPrefix, slot)
}

// EpochFillBuckets is the standard bucketing for MetricEpochFill: how many
// states each epoch actually drafted, up to the configured width.
var EpochFillBuckets = []int64{1, 2, 4, 8, 16, 32}

// Registry is a race-safe named-metric registry. Metrics are created on
// first use and live for the registry's lifetime; lookups take a mutex,
// updates on the returned handles are lock-free atomics — hot paths
// resolve a handle once and hammer the atomic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil-safe).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use; later calls reuse the
// existing instance and ignore bounds (nil-safe).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens every metric into name→value pairs: counters and
// gauges map directly; a histogram expands to name.count, name.sum, one
// name.le_B entry per bucket (plus name.le_inf for the overflow bucket),
// and — when it has observations — interpolated name.p50 and name.p99
// quantile estimates. Safe to call while updates are in flight — values
// are per-metric atomic reads, not a consistent cut.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+8*len(r.hists))
	for n, c := range r.counters {
		out[n] = c.Load()
	}
	for n, g := range r.gauges {
		out[n] = g.Load()
	}
	for n, h := range r.hists {
		out[n+".count"] = h.count.Load()
		out[n+".sum"] = h.sum.Load()
		for i, b := range h.bounds {
			out[fmt.Sprintf("%s.le_%d", n, b)] = h.counts[i].Load()
		}
		out[n+".le_inf"] = h.counts[len(h.bounds)].Load()
		if h.Count() > 0 {
			out[n+".p50"] = int64(h.Quantile(0.50) + 0.5)
			out[n+".p99"] = int64(h.Quantile(0.99) + 0.5)
		}
	}
	return out
}

// HistogramSnapshot is one histogram's point-in-time state: per-bucket
// counts (len(Bounds)+1, the last entry being the +inf overflow bucket)
// plus the running count and sum.
type HistogramSnapshot struct {
	Name   string
	Bounds []int64
	Counts []int64
	Count  int64
	Sum    int64
}

// Export is a typed registry snapshot that keeps the three metric kinds
// separate, for renderers that need the distinction (the Prometheus
// exposition endpoint renders counters, gauges, and histogram bucket
// series differently). Histograms are sorted by name.
type Export struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms []HistogramSnapshot
}

// Export captures a typed snapshot of the registry (nil-safe: a nil
// registry exports empty maps). Like Snapshot, values are per-metric
// atomic reads, not a consistent cut.
func (r *Registry) Export() Export {
	ex := Export{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	if r == nil {
		return ex
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		ex.Counters[n] = c.Load()
	}
	for n, g := range r.gauges {
		ex.Gauges[n] = g.Load()
	}
	for n, h := range r.hists {
		hs := HistogramSnapshot{
			Name:   n,
			Bounds: h.bounds,
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		ex.Histograms = append(ex.Histograms, hs)
	}
	sort.Slice(ex.Histograms, func(i, j int) bool { return ex.Histograms[i].Name < ex.Histograms[j].Name })
	return ex
}

// Format renders the snapshot as a sorted two-column text table (the
// binaries' -metrics dump).
func (r *Registry) Format() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%-36s %12d\n", n, snap[n])
	}
	return sb.String()
}

// Counter is a monotonically increasing metric. The zero value is ready;
// all methods are nil-safe no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric (nil-safe like Counter).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax ratchets the gauge up to n if n exceeds the current value
// (lock-free; used for peak trackers shared across goroutines).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into ≤-bound buckets with an implicit
// +inf overflow bucket, plus running count and sum. Observations are
// lock-free atomics (nil-safe).
type Histogram struct {
	bounds     []int64
	counts     []atomic.Int64
	count, sum atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts
// by linear interpolation inside the bucket holding the q-th observation,
// assuming a uniform spread within each bucket (the standard
// bucket-histogram estimator). The first bucket interpolates from 0 (all
// observed values are non-negative in this registry); an estimate landing
// in the +inf overflow bucket is clamped to the highest finite bound,
// since the ray above it has no upper edge to interpolate toward.
// Returns 0 with no observations (or on nil).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, b := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(b)
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	// The rank falls in the overflow bucket: clamp to the last finite bound.
	return float64(h.bounds[len(h.bounds)-1])
}
