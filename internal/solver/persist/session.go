package persist

import (
	"repro/internal/bytecode"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Config wires a persistent cache session to one analysis run.
type Config struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Program is the freshly compiled program; its function hashes drive
	// invalidation.
	Program *bytecode.Program
	// Shared is the run's SharedCache: loaded entries are seeded into it
	// and its spill hook is pointed at the session's sink. Required.
	Shared *solver.SharedCache
	// Obs, when set, receives solvercache.persist.* metrics.
	Obs *obs.Obs
	// SpillDepth bounds the write-behind channel (0 = DefaultSpillDepth).
	SpillDepth int
	// Writer geometry (zero = defaults).
	Options Options
}

// SessionStats summarizes a session's persistence traffic. Load-side
// numbers are final after Attach; spill-side numbers are final after Close.
type SessionStats struct {
	Loaded      int64 // entries verified and seeded at warm start
	Rejected    int64 // verified-on-load rejections (corruption)
	Invalidated int64 // entries dropped by FnHash diff or tombstone
	Spilled     int64 // entries written behind Check this run
	Dropped     int64 // spill offers lost to channel overflow
	Deduped     int64 // spill offers already on disk
}

// Session is one run's attachment to a persistent solver-cache store:
// entries are loaded, diffed against the current program, verified, and
// seeded at Attach; fresh verdicts spill asynchronously during the run;
// Close seals the store and advances its manifest to the current program.
type Session struct {
	Store *Store
	Sink  *Sink
	Diff  FnDiff

	shared *solver.SharedCache
	fns    []Fn
	ob     *obs.Obs
	stats  SessionStats
}

// Attach opens (or creates) the store, invalidates entries whose origin
// function changed (manifest FnHash diff plus pending tombstones), loads
// and verifies the survivors into cfg.Shared, and installs the write-behind
// spill hook. A load error degrades to a cold start with an already-sealed
// store left intact; it is reported through the returned session's Stats,
// never as a hard failure — except for store-level setup errors (unusable
// directory, foreign program), which do fail.
func Attach(cfg Config) (*Session, error) {
	st, err := Create(cfg.Dir, cfg.Program.Name)
	if err != nil {
		return nil, err
	}
	st.Obs = cfg.Obs
	fns := FnsOf(cfg.Program)
	diff := DiffFns(st.Fns(), fns)

	drop := make(map[uint64]bool, len(diff.Dead))
	for h := range diff.Dead {
		drop[h] = true
	}
	for _, h := range st.Tombstones() {
		drop[h] = true
	}

	s := &Session{
		Store:  st,
		Sink:   NewSink(st, cfg.Options, cfg.SpillDepth, cfg.Obs),
		Diff:   diff,
		shared: cfg.Shared,
		fns:    fns,
		ob:     cfg.Obs,
	}
	loadStats, loadErr := st.Load(drop, func(e solver.CacheEntry) {
		cfg.Shared.Seed(e.Digest, e.BSig, e.Origin, e.Cons, e.Res, e.Model)
		s.Sink.MarkSeen(e.Digest)
	})
	// A damaged segment aborts its own load mid-way; whatever seeded before
	// the damage stays usable and the run proceeds cold for the rest.
	_ = loadErr
	s.stats.Loaded = loadStats.Loaded
	s.stats.Rejected = loadStats.Rejected
	s.stats.Invalidated = loadStats.Invalidated
	if cfg.Obs != nil {
		m := cfg.Obs.Metrics
		m.Counter(obs.MetricPersistLoaded).Add(loadStats.Loaded)
		m.Counter(obs.MetricPersistLoadRejects).Add(loadStats.Rejected)
		m.Counter(obs.MetricPersistInvalidated).Add(loadStats.Invalidated)
	}
	cfg.Shared.Spill = s.Sink.Offer
	return s, nil
}

// Stats returns the session's traffic so far (spill-side totals settle at
// Close).
func (s *Session) Stats() SessionStats {
	out := s.stats
	out.Spilled = s.Sink.Spilled()
	out.Dropped = s.Sink.Dropped()
	out.Deduped = s.Sink.Deduped()
	return out
}

// PersistHits returns the warm-start hits served from seeded entries.
func (s *Session) PersistHits() int64 {
	return s.shared.Counters().PersistHits
}

// Close drains and seals the spill, records the current program's function
// set in the manifest (the next run diffs against it), and clears consumed
// tombstones. Call exactly once, after the run's executors have stopped.
func (s *Session) Close() error {
	s.shared.Spill = nil
	err := s.Sink.Close()
	if e := s.Store.SetFns(s.fns); err == nil {
		err = e
	}
	if e := s.Store.ClearTombstones(); err == nil {
		err = e
	}
	if s.ob != nil {
		s.ob.Metrics.Counter(obs.MetricPersistHits).Add(s.PersistHits())
	}
	return err
}
