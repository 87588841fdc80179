package persist

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/solver"
)

// DefaultSpillDepth is the spill channel's default capacity.
const DefaultSpillDepth = 4096

// Sink is the write-behind half of the persistent cache: Offer (a
// solver.SpillFunc) enqueues freshly decided verdicts onto a bounded
// channel and returns immediately — it NEVER blocks the solver's hot path.
// A single drain goroutine encodes and appends them through a Writer.
// When the channel is full the verdict is dropped and counted; a dropped
// spill costs a future cold solve, never correctness.
type Sink struct {
	w  *Writer
	ob *obs.Obs

	ch   chan solver.CacheEntry
	done chan struct{}

	// seen dedups offers by digest: pre-seeded with every digest loaded
	// from disk and extended as offers are accepted, so re-runs do not
	// grow the store with duplicates.
	mu   sync.Mutex
	seen map[solver.Digest]bool

	spilled atomic.Int64
	dropped atomic.Int64
	deduped atomic.Int64

	closeOnce sync.Once
	err       error // first drain error, read after Close
}

// NewSink starts a sink draining into a new Writer on s. depth <= 0 selects
// DefaultSpillDepth.
func NewSink(s *Store, opts Options, depth int, ob *obs.Obs) *Sink {
	if depth <= 0 {
		depth = DefaultSpillDepth
	}
	k := &Sink{
		w:    s.NewWriter(opts),
		ob:   ob,
		ch:   make(chan solver.CacheEntry, depth),
		done: make(chan struct{}),
		seen: make(map[solver.Digest]bool),
	}
	go k.drain()
	return k
}

func (k *Sink) drain() {
	defer close(k.done)
	for e := range k.ch {
		if k.err != nil {
			continue // keep draining so Offer never sticks; drop silently
		}
		if err := k.w.Append(e); err != nil {
			k.err = err
			continue
		}
		k.spilled.Add(1)
		if k.ob != nil {
			k.ob.Metrics.Counter(obs.MetricPersistSpilled).Inc()
		}
	}
}

// MarkSeen records a digest as already persisted so later offers for it are
// deduplicated — called for every entry loaded at warm start.
func (k *Sink) MarkSeen(d solver.Digest) {
	k.mu.Lock()
	k.seen[d] = true
	k.mu.Unlock()
}

// Offer is the solver.SpillFunc: it enqueues one verdict for asynchronous
// persistence. Unknown verdicts (budget artifacts) are not persistable.
// The constraint slice is copied here, since the caller keeps mutating
// its own buffers; the model never changes, so it is kept as it is.
func (k *Sink) Offer(d solver.Digest, bsig, origin uint64, cons []solver.Constraint, res solver.Result, model *solver.Model) {
	if res != solver.Sat && res != solver.Unsat {
		return
	}
	k.mu.Lock()
	if k.seen[d] {
		k.mu.Unlock()
		k.deduped.Add(1)
		if k.ob != nil {
			k.ob.Metrics.Counter(obs.MetricPersistDeduped).Inc()
		}
		return
	}
	k.seen[d] = true
	k.mu.Unlock()

	e := solver.CacheEntry{Digest: d, BSig: bsig, Origin: origin, Res: res,
		Cons: append([]solver.Constraint(nil), cons...), Model: model}
	select {
	case k.ch <- e:
	default:
		// Channel full: drop rather than back-pressure Check. Un-mark the
		// digest so a later identical verdict can retry.
		k.mu.Lock()
		delete(k.seen, d)
		k.mu.Unlock()
		k.dropped.Add(1)
		if k.ob != nil {
			k.ob.Metrics.Counter(obs.MetricPersistDropped).Inc()
		}
	}
}

// Spilled returns the entries handed to the writer so far.
func (k *Sink) Spilled() int64 { return k.spilled.Load() }

// Dropped returns the offers lost to channel overflow.
func (k *Sink) Dropped() int64 { return k.dropped.Load() }

// Deduped returns the offers skipped as already persisted.
func (k *Sink) Deduped() int64 { return k.deduped.Load() }

// Close drains the channel, seals the in-progress segment, and returns the
// first error encountered by the drain goroutine or the writer. Offer must
// not be called after Close.
func (k *Sink) Close() error {
	k.closeOnce.Do(func() {
		close(k.ch)
		<-k.done
		if cerr := k.w.Close(); k.err == nil {
			k.err = cerr
		}
	})
	return k.err
}
