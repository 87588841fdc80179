package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/obs"
	"repro/internal/pathid"
	"repro/internal/solver"
	"repro/internal/solver/persist"
	"repro/internal/stats"
	"repro/internal/summary"
	"repro/internal/symexec"
)

// Config tunes the StatSym pipeline.
type Config struct {
	// Tau is the hop-divergence threshold τ (default 10, §VII-A).
	Tau int
	// MinPredScore gates predicate application (default 0.5).
	MinPredScore float64
	// Path tunes candidate-path construction.
	Path pathid.Config
	// Spec is the symbolic-input configuration shared with the baseline.
	Spec *symexec.InputSpec

	// PerCandidateTimeout bounds statistics-guided symbolic execution per
	// candidate path (the paper uses 15 minutes; benchmarks scale this
	// down). Zero means no wall-clock bound.
	PerCandidateTimeout time.Duration
	// PerCandidateMaxSteps bounds instructions per candidate (0: executor
	// default).
	PerCandidateMaxSteps int64
	// MaxStates bounds live states per candidate (0: executor default).
	MaxStates int
	// TotalTimeout bounds the whole symbolic-execution phase.
	TotalTimeout time.Duration

	// Parallel is the number of local slots verifying the ranked
	// candidate paths (verify.go); 0 and 1 mean one slot, which is the
	// paper's sequential Fig. 5 loop. Outcomes and report counters are
	// deterministic in rank order regardless of the value, provided the
	// per-candidate budgets are step/state bounds rather than wall-clock
	// ones.
	Parallel int

	// Workers is the in-candidate frontier worker count handed to the
	// symbolic executor (symexec.Options.Workers). 0 drafts one state per
	// epoch, the paper's loop; >= 1 drafts GuidedEpochWidth states per
	// epoch and steps them on that many goroutines, with results identical
	// for every worker count. When combined with Parallel > 1 the two
	// multiply, so the budget is divided: each concurrent attempt gets
	// max(1, Workers/Parallel) frontier workers — which leaves outcomes
	// unchanged (the epoch engine is worker-count-invariant), only the
	// wall-clock split.
	Workers int

	// Dispatch adds one remote slot per WorkerAddrs entry to the
	// verification pool (verify.go, dispatch.go): each pulls ranks from
	// the same queue as the local slots, so remote workers steal whatever
	// the local slots have not claimed yet. Outcomes merge in rank order
	// exactly like local ones, so DetectionDigest is byte-identical for
	// any topology — zero workers, N workers, or workers that die mid-run.
	// Dispatch also turns on the dispatch log and the Dispatch* report
	// telemetry; with an empty WorkerAddrs it is a local-only run, useful
	// for A/B tests.
	Dispatch bool
	// WorkerAddrs lists worker processes to dial (dispatch.SplitAddr
	// syntax: "unix:/path", "/path", "tcp:host:port", "host:port"). A
	// worker that cannot be dialed is skipped with a warning; a worker
	// that fails mid-unit has its unit re-run locally.
	WorkerAddrs []string
	// DispatchLog, when set, appends one JSON line per scheduling event
	// (dial, steal, local, redispatch, merge) to that file — the audit
	// trail tracecheck validates.
	DispatchLog string
	// UnitDeadline bounds one remote unit's round trip (zero:
	// dispatch.DefaultUnitDeadline). A worker that misses the deadline is
	// declared dead and its unit re-runs locally.
	UnitDeadline time.Duration

	// DisableInter / DisablePredicates switch off the two guidance
	// mechanisms independently (ablations).
	DisableInter      bool
	DisablePredicates bool

	// DisableSharedCache turns off the cross-candidate solver cache that
	// RunJob otherwise installs (ablations and A/B determinism tests).
	// The shared cache only ever changes wall-clock time — verdicts and
	// Report counters are identical with it on or off.
	DisableSharedCache bool

	// CacheDir, when set, attaches a persistent cross-run solver-cache
	// store at that directory: verdicts cached by earlier runs are loaded
	// (verified entry-by-entry) into this run's shared cache at warm
	// start, and fresh verdicts spill back behind the solver's hot path.
	// Wall-clock only — every loaded entry is re-verified against its own
	// conjunction before use, so a stale or corrupt store degrades speed,
	// never detection results. Ignored when DisableSharedCache is set.
	CacheDir string
	// Incremental, with CacheDir, skips candidate paths that do not cross
	// any function whose bytecode hash changed since the store's manifest
	// was written: unchanged code keeps its prior verdicts, only the delta
	// is re-verified. A store with no recorded changes runs every
	// candidate (a plain warm run). Skipped candidates are counted in
	// Report.SkippedCandidates. This is an analysis-scoping policy — a
	// vulnerability in skipped (unchanged) code was already reported by
	// the run that populated the store.
	Incremental bool
	// NeedGraph forces the statistical phase to run even on a warm cache
	// hit, because the caller consumes the transition graph (statsym
	// -dot), which the memoized artifact does not carry. Irrelevant
	// without CacheDir.
	NeedGraph bool

	// Scope is the compositional scope policy (summary.ParsePolicy syntax:
	// "" or "all" interprets everything; "all,-f,-g" havocs f and g;
	// "f,g,h" interprets exactly that list plus main). Out-of-scope calls
	// are replaced by havoc summaries — fresh symbolic return plus the
	// callee's declared side-effect set.
	Scope string
	// Summaries enables summarize call mode: summarizable in-scope calls
	// are replaced by memoized path summaries mined once per function body
	// and reused across candidate attempts. With a full-coverage Scope this
	// is detection-equivalent to full interpretation (the differential
	// tests pin it); it changes step/path counters, not what is found.
	Summaries bool

	// sharedCache is the cross-candidate solver cache threaded by
	// RunJob into every candidate verification of one pipeline run.
	sharedCache *solver.SharedCache
	// calls is the compositional call strategy shared by every candidate
	// attempt of one pipeline run; summaryCache is the cross-attempt
	// summary store behind it (the cross-attempt reuse is the point: the
	// same function body is mined once for the whole run).
	calls        symexec.CallStrategy
	summaryCache *summary.Cache
	// originHashes maps bytecode.Fn.Index to summary.FnHash so the solver
	// layer can attribute each cached verdict to the function whose branch
	// issued it (persistent-cache invalidation granularity). Computed once
	// per run when CacheDir is set.
	originHashes []uint64
}

// initCalls builds the compositional call strategy once per pipeline run
// (no-op when one is already installed or every call is interpreted).
func (cfg *Config) initCalls(prog *bytecode.Program) error {
	if cfg.calls != nil || !cfg.Summaries && (cfg.Scope == "" || cfg.Scope == "all") {
		return nil
	}
	pol, err := summary.ParsePolicy(cfg.Scope)
	if err != nil {
		return err
	}
	mode := symexec.CallHavoc
	if cfg.Summaries {
		mode = symexec.CallSummarize
		cfg.summaryCache = summary.NewCache()
	}
	cfg.calls, err = symexec.NewCallStrategy(prog, mode, pol, cfg.summaryCache)
	return err
}

// CallStrategy builds the compositional call strategy Scope and Summaries
// select for prog, with its own summary cache; nil means every call is
// interpreted.
func (cfg Config) CallStrategy(prog *bytecode.Program) (symexec.CallStrategy, error) {
	err := cfg.initCalls(prog)
	return cfg.calls, err
}

// effectiveWorkers returns the frontier worker count for one candidate
// attempt: the full Workers budget when attempts run one at a time, an
// even share (at least 1, keeping the epoch engine and its invariance)
// when Parallel attempts run concurrently.
func (cfg Config) effectiveWorkers() int {
	w := cfg.Workers
	if w <= 0 {
		return 0
	}
	if cfg.Parallel > 1 {
		w /= cfg.Parallel
		if w < 1 {
			w = 1
		}
	}
	return w
}

// withDefaults returns cfg with unset tunables replaced by the paper
// defaults. Every pipeline entry point (RunJob and direct candidate
// verification) normalizes its Config through this single place.
func (cfg Config) withDefaults() Config {
	if cfg.Tau == 0 {
		cfg.Tau = DefaultTau
	}
	if cfg.MinPredScore == 0 {
		cfg.MinPredScore = DefaultMinPredScore
	}
	return cfg
}

// CandidateOutcome records one guided exploration attempt.
type CandidateOutcome struct {
	Index    int // 1-based rank of the candidate path
	PathLen  int
	Found    bool
	Paths    int // paths explored during this attempt
	Steps    int64
	Suspends int
	Matches  int
	Elapsed  time.Duration
	// Infeasible marks candidates abandoned with every prioritized state
	// suspended or exhausted (the thttpd first-candidate case, §VII-C2).
	Infeasible bool
	// Cancelled marks attempts interrupted by context cancellation
	// (user interrupt or a lower-ranked candidate winning the parallel
	// race); their counters reflect only the work done before the stop.
	Cancelled bool

	// Solver effort for this attempt: total satisfiability queries, the
	// query-cache split (exact hits and misses), the components answered
	// from their records without a lookup, and the wall clock spent
	// inside non-memoized solver checks.
	SolverChecks int
	CacheHits    int
	CompReused   int
	CacheMisses  int
	SolverTime   time.Duration

	// Compositional-call counters for this attempt (zero under interpret
	// mode): calls replaced by summary instantiation, feasible paths those
	// produced, calls replaced by havoc, and paths cut by the call-depth
	// bound. Deterministic — mirrored from symexec.Result, not the cache.
	SummaryCalls   int
	SummaryPaths   int
	HavocCalls     int
	DepthExhausted int
}

// Label is the outcome's one-word status, shared by the CLIs, the HTML
// report, and verify-span close events.
func (o CandidateOutcome) Label() string {
	switch {
	case o.Found:
		return "found"
	case o.Cancelled:
		return "cancelled"
	case o.Infeasible:
		return "abandoned"
	default:
		return "no-vuln"
	}
}

// Report is the pipeline's full output.
type Report struct {
	Program string

	// Corpus statistics.
	Runs, Locations, Variables int
	LogBytes                   int

	Analysis *stats.Analysis
	PathRes  *pathid.Result

	// Module times: StatTime covers predicate construction and candidate
	// path construction (the paper's "Statistical Module" column);
	// SymTime covers guided symbolic execution.
	StatTime time.Duration
	SymTime  time.Duration

	Candidates []CandidateOutcome
	// Vuln is the verified vulnerability (nil if none found).
	Vuln *symexec.Vulnerability
	// CandidateUsed is the 1-based rank of the successful candidate.
	CandidateUsed int
	// MonTime is the corpus-collection (monitor) wall time when the
	// caller collected logs as part of this run; zero when a pre-built
	// corpus was loaded. Set by the caller (cmd/statsym, bench) since
	// collection happens before RunJob.
	MonTime time.Duration

	// TotalPaths sums paths explored across attempts (Table IV).
	// TotalSteps sums instruction counts the same way. Both include the
	// partial counters of an attempt interrupted mid-flight by a caller
	// cancellation (that attempt appears in Candidates with
	// Cancelled=true) but never the work of ranks the run did not reach —
	// with several slots, attempts cancelled because a lower rank already
	// verified the vulnerability are discarded, matching the sequential
	// loop which never starts them (see mergeAttempts).
	TotalPaths int
	TotalSteps int64
	// CacheHits/CompReused/CacheMisses/SolverTime aggregate the
	// per-candidate solver effort across the recorded attempts.
	CacheHits   int
	CompReused  int
	CacheMisses int
	SolverTime  time.Duration
	// Compositional-call totals across the recorded attempts (deterministic,
	// from the executors' Result counters).
	SummaryCalls   int
	SummaryPaths   int
	HavocCalls     int
	DepthExhausted int
	// Summary-cache telemetry for the run (summarize mode only): lookup
	// hits/misses and mined/failed summary counts. Deterministic under
	// sequential verification; approximate under Parallel > 1, where
	// concurrent attempts race lookups — never part of DetectionDigest.
	SummaryHits   int64
	SummaryMisses int64
	SummaryMined  int64
	// Persistent solver-cache traffic for the run (CacheDir set only):
	// entries loaded and verified at warm start, verified-on-load
	// rejections (on-disk corruption), entries invalidated by function
	// changes or tombstones, entries spilled to disk this run, and
	// lookup hits served from loaded entries. Wall-clock telemetry —
	// never part of DetectionDigest.
	PersistLoaded      int64
	PersistRejected    int64
	PersistInvalidated int64
	PersistSpilled     int64
	PersistHits        int64
	// SkippedCandidates counts candidate paths elided by Incremental
	// mode (no dirty function on the path).
	SkippedCandidates int
	// Dispatch scheduling telemetry (Dispatch mode only; zero otherwise):
	// attempts executed by remote workers ("stolen"), attempts executed by
	// the local slots, attempts re-run locally after a worker failure, and
	// workers lost to transport errors. Counts cover every attempt
	// started, including ones a lower-ranked success later discarded.
	// Wall-clock telemetry — never part of DetectionDigest.
	DispatchRemote       int
	DispatchLocal        int
	DispatchRedispatched int
	DispatchWorkersDead  int
	// StatsCached reports that the statistical phase was replayed from
	// the CacheDir memo instead of being derived (wall-clock only; the
	// replay is byte-exact). PathRes.Graph is nil on a replay.
	StatsCached bool
	// Cancelled reports that the symbolic-execution phase was interrupted
	// by context cancellation before it could finish; the report carries
	// whatever the pipeline completed up to that point.
	Cancelled bool
}

// Found reports whether the pipeline verified a vulnerable path.
func (r *Report) Found() bool { return r.Vuln != nil }

// Detours returns the number of detours found by statistical analysis
// (Tables II and III).
func (r *Report) Detours() int {
	if r.PathRes == nil {
		return 0
	}
	return len(r.PathRes.Detours)
}

// runSymPhase is the statistics-guided symbolic execution module — the
// back half of the pipeline. It consumes rep.PathRes, has verify schedule
// the candidate attempts, and fills in the attempt outcomes, totals, and
// SymTime.
func runSymPhase(ctx context.Context, prog *bytecode.Program, cfg Config, rep *Report, verify verifyFunc) error {
	symStart := time.Now()
	symCtx := ctx
	if cfg.TotalTimeout > 0 {
		var cancel context.CancelFunc
		symCtx, cancel = context.WithTimeout(ctx, cfg.TotalTimeout)
		defer cancel()
	}
	cands := rep.PathRes.Candidates
	// One shared solver cache per multi-slot pipeline run: concurrent
	// candidate verifications reuse each other's verdicts. Wall-clock
	// only — counters and outcomes are unaffected. One-slot runs skip
	// it (anything a lone worker could hit is already in its local LRU,
	// so the shared layer would pay a lock-and-copy per miss for
	// nothing) — unless a persistent CacheDir is attached, which needs
	// the shared layer as its in-memory face even for one worker.
	if !cfg.DisableSharedCache && (cfg.CacheDir != "" || (cfg.Parallel > 1 && len(cands) > 1)) {
		cfg.sharedCache = solver.NewSharedCache(0)
	}
	var session *persist.Session
	if cfg.CacheDir != "" && cfg.sharedCache != nil {
		cfg.originHashes = summary.HashProgram(prog)
		s, err := persist.Attach(persist.Config{
			Dir:     cfg.CacheDir,
			Program: prog,
			Shared:  cfg.sharedCache,
			Obs:     obs.FromContext(ctx),
		})
		if err != nil {
			rep.SymTime = time.Since(symStart)
			return fmt.Errorf("core: solver cache: %w", err)
		}
		session = s
		obs.Progress(ctx, obs.A("phase", "solvercache"),
			obs.A("loaded", s.Stats().Loaded),
			obs.A("rejected", s.Stats().Rejected),
			obs.A("invalidated", s.Stats().Invalidated))
		if cfg.Incremental && session.Diff.HasChanges() {
			kept, skipped := filterCandidatesByDirty(cands, session.Diff.Dirty)
			rep.SkippedCandidates = skipped
			cands = kept
		}
	}
	// The compositional call strategy is built once per run — even for
	// sequential verification, since the summary cache's value is reusing
	// mined summaries across candidate attempts.
	if err := cfg.initCalls(prog); err != nil {
		rep.SymTime = time.Since(symStart)
		return fmt.Errorf("core: call strategy: %w", err)
	}
	verify(symCtx, prog, cands, cfg, rep)
	// Seal the persistent cache before reading its counters: Close drains
	// the write-behind spill and advances the store manifest to this
	// program's function set. A seal failure costs the next run its warm
	// start, nothing else — degrade to a warning.
	if session != nil {
		if err := session.Close(); err != nil {
			obs.Warn(ctx, "solver cache seal failed", obs.A("error", err.Error()))
		}
		st := session.Stats()
		rep.PersistLoaded = st.Loaded
		rep.PersistRejected = st.Rejected
		rep.PersistInvalidated = st.Invalidated
		rep.PersistSpilled = st.Spilled
		rep.PersistHits = session.PersistHits()
	}
	if cfg.sharedCache != nil {
		if o := obs.FromContext(ctx); o != nil {
			c := cfg.sharedCache.Counters()
			o.Metrics.Counter(obs.MetricSharedCacheStores).Add(c.Stores)
			o.Metrics.Counter(obs.MetricSharedCacheEvictions).Add(c.Evictions)
			if c.Invalidations > 0 {
				o.Metrics.Counter(obs.MetricSharedCacheInvalidations).Add(c.Invalidations)
			}
		}
	}
	if cfg.summaryCache != nil {
		c := cfg.summaryCache.Counters()
		rep.SummaryHits = c.Hits
		rep.SummaryMisses = c.Misses
		rep.SummaryMined = c.Mined
		if o := obs.FromContext(ctx); o != nil {
			o.Metrics.Counter(obs.MetricSummaryHits).Add(c.Hits)
			o.Metrics.Counter(obs.MetricSummaryMisses).Add(c.Misses)
			o.Metrics.Counter(obs.MetricSummaryMined).Add(c.Mined)
			o.Metrics.Counter(obs.MetricSummaryFailed).Add(c.Failed)
		}
	}
	// A cancellation of the caller's context is surfaced as such; an
	// expired TotalTimeout is the pipeline completing at its budget, the
	// same as before contexts.
	if ctx.Err() != nil && !rep.Found() {
		rep.Cancelled = true
	}
	rep.SymTime = time.Since(symStart)
	return nil
}

// addOutcome appends one attempt to the report and folds its counters
// into the totals — the single accumulation point of the rank-order
// merge.
func (r *Report) addOutcome(o CandidateOutcome) {
	r.Candidates = append(r.Candidates, o)
	r.TotalPaths += o.Paths
	r.TotalSteps += o.Steps
	r.CacheHits += o.CacheHits
	r.CompReused += o.CompReused
	r.CacheMisses += o.CacheMisses
	r.SolverTime += o.SolverTime
	r.SummaryCalls += o.SummaryCalls
	r.SummaryPaths += o.SummaryPaths
	r.HavocCalls += o.HavocCalls
	r.DepthExhausted += o.DepthExhausted
}

// VerifyCandidateCtx runs statistics-guided symbolic execution against one
// candidate vulnerable path (step e.2 of Fig. 5) under a context and
// reports the outcome together with the vulnerability, if verified. rank
// is the candidate's 1-based position in the ranked list and is recorded
// as the outcome's Index, so direct callers (tests, alternative ranking
// strategies, the slot pool) get correct indices without patching the
// outcome afterwards.
func VerifyCandidateCtx(ctx context.Context, prog *bytecode.Program, cand *pathid.CandidatePath, rank int, cfg Config) (CandidateOutcome, *symexec.Vulnerability) {
	cfg = cfg.withDefaults()
	g := NewGuidance(cand)
	g.Tau = cfg.Tau
	g.MinPredScore = cfg.MinPredScore
	g.DisableInter = cfg.DisableInter
	g.DisablePredicates = cfg.DisablePredicates
	// Direct callers (tests, alternative rankers) reach here without the
	// pipeline's runSymPhase having built the call strategy; build one for
	// this attempt. An invalid Scope is surfaced by RunJob — here it
	// falls back to interpretation, which is always sound.
	if cfg.calls == nil {
		_ = cfg.initCalls(prog)
	}
	opts := symexec.DefaultOptions()
	opts.Sched = NewGuidedScheduler()
	opts.Hook = g.Hook
	opts.SharedCache = cfg.sharedCache
	opts.OriginHashes = cfg.originHashes
	opts.Calls = cfg.calls
	opts.Workers = cfg.effectiveWorkers()
	// Guided attempts with Workers >= 1 draft a narrow epoch: the guidance
	// concentrates the budget on states tracking the candidate path, and a
	// wide draft force-steps off-path states a one-state epoch would leave
	// parked, multiplying steps-to-detection by the width. Width 4 keeps
	// the detections aligned with Workers=0 on the bundled apps while
	// still overlapping four quanta per epoch. (Pure exploration keeps the
	// wider default — breadth is the point there.)
	opts.EpochWidth = GuidedEpochWidth
	opts.Timeout = cfg.PerCandidateTimeout
	if cfg.PerCandidateMaxSteps > 0 {
		opts.MaxSteps = cfg.PerCandidateMaxSteps
	}
	if cfg.MaxStates > 0 {
		opts.MaxStates = cfg.MaxStates
	}
	// The verify span rides into the executor through the context, so
	// progress snapshots attach to this candidate's span. Every slot
	// derives its context from the pipeline root, so concurrent verify
	// spans all nest under it deterministically.
	ctx, vspan := obs.StartSpan(ctx, "verify", obs.A("rank", rank), obs.A("path_len", cand.Len()))
	obs.Progress(ctx, obs.A("phase", "verify"), obs.A("rank", rank),
		obs.A("path_len", cand.Len()))
	runStart := time.Now()
	ex := symexec.New(prog, cfg.Spec, opts)
	res := ex.RunContext(ctx)
	out := CandidateOutcome{
		Index:          rank,
		PathLen:        cand.Len(),
		Found:          res.Found(),
		Paths:          res.Paths,
		Steps:          res.Steps,
		Suspends:       int(g.Suspends.Load()),
		Matches:        int(g.Matches.Load()),
		Elapsed:        res.Elapsed,
		Cancelled:      res.Cancelled,
		SolverChecks:   res.SolverChecks,
		CacheHits:      res.CacheHits,
		CompReused:     res.CompReused,
		CacheMisses:    res.CacheMisses,
		SolverTime:     res.SolverTime,
		SummaryCalls:   res.SummaryCalls,
		SummaryPaths:   res.SummaryPaths,
		HavocCalls:     res.HavocCalls,
		DepthExhausted: res.DepthExhausted,
	}
	var vuln *symexec.Vulnerability
	if res.Found() {
		vuln = res.Vulns[0]
	} else {
		// Candidate abandoned: either the guided frontier died out
		// (infeasible candidate) or a resource bound hit. A cancelled
		// attempt is neither — it simply never finished.
		out.Infeasible = !res.Cancelled &&
			(res.TimedOut || res.Exhausted || res.StepLimited || res.SuspendedAtEnd > 0)
		if !res.Cancelled {
			// One-line warning so logs distinguish budget exhaustion
			// (timeout / step / state limits) from τ-divergence.
			obs.Warn(ctx, "candidate abandoned",
				obs.A("rank", rank), obs.A("reason", abandonReason(res)),
				obs.A("steps", res.Steps), obs.A("paths", res.Paths))
		}
	}
	if o := obs.FromContext(ctx); o != nil {
		m := o.Metrics
		m.Counter(obs.MetricCandidateAttempts).Inc()
		if vuln != nil {
			m.Counter(obs.MetricCandidateFound).Inc()
		} else if out.Infeasible {
			m.Counter(obs.MetricCandidateInfeasible).Inc()
		}
	}
	// The aggregated solver effort renders as a synthetic child span: its
	// duration is the candidate's accumulated solver wall time, not one
	// contiguous interval.
	vspan.EmitChild("solver", runStart, res.SolverTime,
		obs.A("checks", res.SolverChecks), obs.A("sat", res.SolverSat),
		obs.A("unsat", res.SolverUnsat), obs.A("unknown", res.SolverUnknowns),
		obs.A("cache_hits", res.CacheHits), obs.A("cache_reused", res.CompReused),
		obs.A("cache_misses", res.CacheMisses))
	vspan.End(obs.A("rank", rank), obs.A("outcome", out.Label()),
		obs.A("paths", out.Paths), obs.A("steps", out.Steps))
	return out, vuln
}

// abandonReason classifies why an attempt stopped without a verified
// vulnerability: the three budget exhaustions are distinguishable from
// τ-divergence (the guided frontier suspended or died out) in event logs.
func abandonReason(res *symexec.Result) string {
	switch {
	case res.TimedOut:
		return "per-candidate-timeout"
	case res.StepLimited:
		return "max-steps"
	case res.Exhausted:
		return "max-states"
	case res.SuspendedAtEnd > 0:
		return "tau-divergence"
	default:
		return "frontier-exhausted"
	}
}

// RunPureContext executes the pure-symbolic-execution baseline
// (unmodified KLEE in the paper's Table IV) with the same input spec and
// resource bounds. Cancellation stops the baseline the same way it stops
// guided attempts.
func RunPureContext(ctx context.Context, prog *bytecode.Program, spec *symexec.InputSpec, maxStates int, maxSteps int64, timeout time.Duration) *symexec.Result {
	return RunPureWorkers(ctx, prog, spec, maxStates, maxSteps, timeout, 0)
}

// RunPureWorkers is RunPureContext with an in-run frontier worker count
// (0: one state per quantum; >= 1: wider deterministic epochs).
func RunPureWorkers(ctx context.Context, prog *bytecode.Program, spec *symexec.InputSpec, maxStates int, maxSteps int64, timeout time.Duration, workers int) *symexec.Result {
	opts := symexec.DefaultOptions()
	opts.Sched = symexec.NewBFS()
	if maxStates > 0 {
		opts.MaxStates = maxStates
	}
	if maxSteps > 0 {
		opts.MaxSteps = maxSteps
	}
	opts.Timeout = timeout
	opts.Workers = workers
	ex := symexec.New(prog, spec, opts)
	return ex.RunContext(ctx)
}
