package symexec

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/trace"
)

// HookDecision is the guidance hook's verdict for a state at a location.
type HookDecision int

// Hook decisions.
const (
	HookContinue HookDecision = iota
	HookSuspend
)

// LocationHook observes a state crossing an instrumentation location
// (function entry/exit). StatSym's state manager is implemented as such a
// hook: it tracks candidate-path progress, applies predicate constraints,
// and suspends states that diverge beyond the hop threshold.
type LocationHook func(ex *Executor, st *State, loc trace.Location, view *VarView) HookDecision

// Options configures an execution.
type Options struct {
	// Sched selects the state scheduler (default: BFS, the pure baseline).
	Sched Scheduler
	// MaxStates bounds live states; exceeding it aborts the run with
	// Exhausted=true — the analogue of KLEE running out of memory
	// ("state exploration failure due to lack of available memory",
	// §VII-B). Zero means DefaultMaxStates.
	MaxStates int
	// MaxSteps bounds total executed instructions (0: DefaultMaxSteps).
	MaxSteps int64
	// Timeout bounds wall-clock time (0: none).
	Timeout time.Duration
	// StopAtFirstVuln stops the whole run at the first vulnerability.
	StopAtFirstVuln bool
	// MaxDepth bounds the call stack.
	MaxDepth int
	// CheckStringReads enables out-of-bounds oracles on char() with
	// symbolic operands (extra solver queries). Defaults to true via
	// DefaultOptions.
	CheckStringReads bool
	// Hook is the guidance hook (nil for pure symbolic execution).
	Hook LocationHook
	// Calls selects the compositional call strategy (nil: interpret every
	// call, today's behavior). Build one with NewCallStrategy; the same
	// strategy value is shared read-only by the frontier engine's worker
	// slots, so implementations must be concurrency-safe.
	Calls CallStrategy
	// SharedCache, when set, lets this executor's solver reuse verdicts
	// solved by other executors (parallel candidate verification). Purely
	// a wall-clock optimization: verdicts, models, and all Result counters
	// are unaffected (the solver is deterministic and the local logical
	// counters are maintained identically on shared hits).
	SharedCache *solver.SharedCache
	// OriginHashes, when set, is the per-function content-hash table
	// (summary.HashProgram, indexed by Fn.Index). The executor stamps each
	// solver query with the hash of the function whose branch issued it,
	// so the persistent cache can attribute — and later invalidate —
	// entries by origin function. Purely attributive: never consulted for
	// verdicts.
	OriginHashes []uint64
	// Workers selects how many goroutines step the frontier. Every run uses
	// the epoch loop (frontier.go): draft states from the scheduler, run
	// each for one quantum on its own slot, merge the outcomes in draft
	// order. 0 (the default) drafts one state per epoch on the calling
	// goroutine — the paper's pick/run/re-insert loop, with dense variable
	// numbering, so only these runs can be checkpointed. >= 1 drafts
	// EpochWidth states per epoch and steps them on that many worker
	// goroutines. Results depend only on the width, never on the worker
	// count, so Workers=1 and Workers=8 produce identical Results (and the
	// race detector stays clean). Wider epochs number variables by lane and
	// pre-register input channels, so their exploration can differ from
	// Workers=0 on programs where those matter.
	Workers int
	// EpochWidth is the number of states drafted per epoch when Workers
	// >= 1 (0: DefaultEpochWidth). It, not Workers, determines the
	// schedule.
	EpochWidth int
}

// Default limits.
const (
	DefaultMaxStates  = 20_000
	DefaultMaxSteps   = 20_000_000
	DefaultMaxDepth   = 128
	DefaultEpochWidth = 8
)

// BatchSize is the scheduling quantum: the instructions a drafted state
// runs before it returns to the scheduler.
const BatchSize = 64

// DefaultOptions returns the pure-symbolic-execution defaults.
func DefaultOptions() Options {
	return Options{
		StopAtFirstVuln:  true,
		CheckStringReads: true,
	}
}

// width is the number of states drafted per epoch: 1 for the default
// Workers=0, EpochWidth (or its default) otherwise.
func (o *Options) width() int {
	switch {
	case o.Workers <= 0:
		return 1
	case o.EpochWidth <= 0:
		return DefaultEpochWidth
	}
	return o.EpochWidth
}

// Vulnerability is a proven-reachable fault with its complete path,
// constraints, and a concrete witness input — the tool's primary output
// ("the complete execution path (and path constraints) that leads to the
// program failure point", §IV).
type Vulnerability struct {
	Kind        interp.FaultKind
	Func        string
	Pos         minic.Pos
	Path        []trace.Location
	Constraints []solver.Constraint
	Model       *solver.Model
	Witness     *interp.Input
}

// Site returns a stable identifier of the fault site.
func (v *Vulnerability) Site() string {
	return fmt.Sprintf("%s:%s@%s", v.Kind, v.Func, v.Pos)
}

// Result summarizes an execution.
type Result struct {
	Vulns []*Vulnerability
	// Paths counts completed paths (terminated, faulted, or proven
	// infeasible states) — the "#paths" column of Table IV.
	Paths int
	// StatesCreated counts every state ever scheduled; MaxLive is the
	// peak live-state count.
	StatesCreated int
	MaxLive       int
	Steps         int64
	Forks         int
	// Compositional-call counters (deterministic; timing-dependent summary
	// cache hit/miss rates live on summary.Cache instead). SummaryCalls
	// counts calls replaced by summary instantiation, SummaryPaths the
	// feasible paths those instantiations produced, HavocCalls the
	// out-of-scope calls replaced by havoc summaries, and DepthExhausted
	// the paths cut off by the MaxDepth call-stack bound.
	SummaryCalls   int
	SummaryPaths   int
	HavocCalls     int
	DepthExhausted int
	// SolverChecks/SolverUnknowns count satisfiability queries that missed
	// the local query cache; SolverSat/SolverUnsat
	// split the decided queries by verdict.
	SolverChecks   int
	SolverUnknowns int
	SolverSat      int
	SolverUnsat    int
	// CacheHits/CacheMisses are the solver query-cache counters and
	// SolverTime the wall clock spent inside non-memoized solver checks —
	// surfaced here so pipeline reports need not reach into the solver.
	// CacheEvictions counts LRU evictions from the exact-match cache.
	// CompReused counts the components full queries answered from their
	// records instead of looking them up; CacheHits + CompReused is the
	// hit count of a run that looks every component up.
	CacheHits      int
	CacheMisses    int
	CacheEvictions int
	CompReused     int
	SolverTime     time.Duration
	// Exhausted reports the state-budget abort (KLEE OOM analogue);
	// StepLimited and TimedOut report the other resource aborts.
	Exhausted   bool
	StepLimited bool
	TimedOut    bool
	// Cancelled reports that the run's context was cancelled by the
	// caller (user interrupt, a sibling candidate winning the race) —
	// distinct from TimedOut, which reports an expired wall-clock budget.
	Cancelled bool
	Elapsed   time.Duration
	// SuspendedAtEnd counts states still suspended when the run stopped.
	SuspendedAtEnd int
	// Revivals counts suspended-pool revivals (guidance fallback events).
	Revivals int
	// Epochs counts merge epochs of the scheduling loop — one per quantum
	// at the default width of 1. Deterministic: a function of the width
	// and the program, never of Workers.
	Epochs int64
}

// Found reports whether at least one vulnerability was discovered.
func (r *Result) Found() bool { return len(r.Vulns) > 0 }

// Executor drives symbolic execution of one program.
type Executor struct {
	Prog   *bytecode.Program
	Table  *solver.VarTable
	Solver *solver.CachedSolver
	Opts   Options

	inputs    *inputRegistry
	sched     Scheduler
	suspended []*State
	res       *Result

	nextID  int
	nextSeq int
	ctx     context.Context
	stopped bool

	// seeded marks an executor whose builder already populated the
	// scheduler — a checkpoint resume (checkpoint.go) or a summary mine
	// started at a function's entry (miner.go) — so RunContext must not
	// run program initialization.
	seeded bool

	visits [][]int64

	// Epoch-loop plumbing (see frontier.go). lane, when set, supplies this
	// executor view's fresh variable IDs (above width 1 each slot has its
	// own lane so concurrent allocation is deterministic); extraWall
	// accumulates the other slots' solver wall time; parent is the run a
	// slot belongs to (nil on the run itself).
	lane      *solver.Lane
	extraWall time.Duration
	parent    *Executor

	// Slots of epochs wider than one buffer visit counts locally
	// (visitDelta, with visitDirty listing the touched instructions) and
	// flush them into the main executor's arrays at the merge barrier,
	// where the scheduler — the only reader — runs. No worker touches the
	// shared arrays while a quantum runs, so counts need no atomics. A
	// lone slot counts into the shared arrays directly.
	visitDelta [][]int64
	visitDirty []visitRef

	// Observability (nil when disabled — the only cost is nil checks).
	// obsv/span are resolved once per RunContext from the context; hops is
	// the pre-resolved diverted-hop histogram so the suspension path does
	// not take the registry lock; suspensions feeds the pruned-states
	// counter.
	obsv        *obs.Obs
	span        *obs.Span
	hops        *obs.Histogram
	lastSnap    time.Time
	suspensions int64

	// query is the scratch space satisfiable assembles a query's
	// components in.
	query pcQuery

	// derived is the last model satisfiable derived from a solver answer;
	// commit installs it with the prefix it is known to satisfy held.
	derived derivedModel
}

// derivedModel records that the first held constraints of a path
// condition hold under m, a model derived from a solver answer for it.
// The path condition is named by its store and the store's write count:
// a fork child shares the store until it writes, and any write to the
// store, or a copy of it, stops the record from matching.
type derivedModel struct {
	m    *solver.Model
	path *pathStore
	gen  uint64
	held int
}

// New prepares an executor for prog with the given symbolic-input spec.
func New(prog *bytecode.Program, spec *InputSpec, opts Options) *Executor {
	ex := newExecutor(prog, solver.NewVarTable(), spec, opts)
	if ex.Opts.width() > 1 {
		// Deterministic variable identity under concurrency: pre-register
		// every literal-named input channel and reserve byte blocks for
		// symbolic strings, so IDs never depend on which worker gets there
		// first.
		ex.inputs.blocks = true
		ex.inputs.prescan(prog)
		// Slots flush their visit deltas straight into these arrays at the
		// merge barrier; allocate them all up front.
		for i, fn := range prog.Funcs {
			ex.visits[i] = make([]int64, len(fn.Code))
		}
	}
	return ex
}

// newExecutor builds an executor over table with the unset options
// defaulted; New and ResumeExecutor share it.
func newExecutor(prog *bytecode.Program, table *solver.VarTable, spec *InputSpec, opts Options) *Executor {
	if opts.Sched == nil {
		opts.Sched = NewBFS()
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	ex := &Executor{
		Prog:   prog,
		Table:  table,
		Solver: solver.NewCached(solver.New()),
		Opts:   opts,
		inputs: newInputRegistry(table, spec),
		sched:  opts.Sched,
		res:    &Result{},
		visits: make([][]int64, len(prog.Funcs)),
	}
	ex.Solver.Shared = opts.SharedCache
	if cov, ok := opts.Sched.(*CoverageScheduler); ok {
		cov.SetVisitFunc(ex.visitCount)
	}
	return ex
}

// alloc returns this executor view's variable allocator: its lane under the
// parallel frontier engine, the dense table otherwise.
func (ex *Executor) alloc() solver.VarAllocator {
	if ex.lane != nil {
		return ex.lane
	}
	return ex.Table
}

func (ex *Executor) newVar(name string) solver.Var {
	return ex.alloc().NewVar(name)
}

func (ex *Executor) newVarBounded(name string, lo, hi int64) solver.Var {
	return ex.alloc().NewVarBounded(name, lo, hi)
}

func (ex *Executor) freshStr(label string, maxLen int64) *SymString {
	return ex.inputs.freshStr(ex.alloc(), label, maxLen)
}

func (ex *Executor) visitCount(fnIndex, pc int) int64 {
	v := ex.visits[fnIndex]
	if v == nil || pc >= len(v) {
		return 0
	}
	return v[pc]
}

// visitRef names one instruction with a buffered visit delta.
type visitRef struct {
	fn, pc int32
}

func (ex *Executor) recordVisit(fnIndex, pc int) {
	if ex.visits[fnIndex] == nil {
		ex.visits[fnIndex] = make([]int64, len(ex.Prog.Funcs[fnIndex].Code))
	}
	if pc < len(ex.visits[fnIndex]) {
		if ex.visitDelta != nil {
			// Epoch-engine slot: buffer locally, flushed at the merge
			// barrier (order-independent sums keep scheduling deterministic).
			d := ex.visitDelta[fnIndex]
			if d[pc] == 0 {
				ex.visitDirty = append(ex.visitDirty, visitRef{fn: int32(fnIndex), pc: int32(pc)})
			}
			d[pc]++
			return
		}
		ex.visits[fnIndex][pc]++
	}
}

// flushVisits folds a slot's buffered visit counts into the main arrays.
// Called at the merge barrier, where no worker is running.
func (ex *Executor) flushVisits(sx *Executor) {
	for _, ref := range sx.visitDirty {
		d := sx.visitDelta[ref.fn]
		ex.visits[ref.fn][ref.pc] += d[ref.pc]
		d[ref.pc] = 0
	}
	sx.visitDirty = sx.visitDirty[:0]
}

// Run executes until a stop condition: vulnerability found (with
// StopAtFirstVuln), state space exhausted, budget exceeded, or no states
// remain.
func (ex *Executor) Run() *Result {
	return ex.RunContext(context.Background())
}

// RunContext is Run under a context: the step loop checks the context
// cooperatively once per epoch (one scheduling quantum at the default
// width), so cancellation latency is bounded by one batch of instructions
// per drafted state (plus at most one solver query,
// each of which is itself budget-bounded). Options.Timeout, when set, is
// layered on top of ctx as a deadline; an expired deadline is recorded as
// TimedOut, an explicit cancellation as Cancelled. Either way the Result
// is complete and internally consistent — counters reflect exactly the
// work done before the stop.
func (ex *Executor) RunContext(ctx context.Context) *Result {
	return ex.runContext(ctx, (*Executor).runEpochs)
}

// runContext is RunContext with the scheduling loop as a parameter, so a
// reference loop can run under the same setup and counter fold.
func (ex *Executor) runContext(ctx context.Context, loop func(*Executor)) *Result {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if ex.Opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ex.Opts.Timeout)
		defer cancel()
	}
	ex.ctx = ctx
	if o := obs.FromContext(ctx); o != nil {
		ex.obsv = o
		ex.span = obs.SpanFromContext(ctx)
		ex.hops = o.Metrics.Histogram(obs.MetricDivertedHops, obs.HopBuckets...)
		ex.lastSnap = start
	}
	if !ex.seeded {
		st, err := ex.initialState()
		if err != nil {
			// Initialization of globals cannot fork or fault in checked
			// programs; treat failures as an empty result.
			ex.res.Elapsed = time.Since(start)
			return ex.res
		}
		ex.addState(st)
	}
	loop(ex)
	ex.res.SuspendedAtEnd = len(ex.suspended)
	// Logical solver counters (CachedSolver.Queries, not S.Stats): they
	// are identical whether or not a SharedCache served some verdicts, so
	// Report counters stay deterministic across run configurations.
	ex.res.SolverChecks = ex.Solver.Queries.Checks
	ex.res.SolverUnknowns = ex.Solver.Queries.Unknown
	ex.res.SolverSat = ex.Solver.Queries.Sat
	ex.res.SolverUnsat = ex.Solver.Queries.Unsat
	ex.res.CacheHits = ex.Solver.Hits
	ex.res.CacheMisses = ex.Solver.Misses
	ex.res.CompReused = ex.Solver.Reused
	ex.res.CacheEvictions = ex.Solver.Evictions
	ex.res.SolverTime = ex.Solver.WallTime() + ex.extraWall
	ex.res.Elapsed = time.Since(start)
	if ex.obsv != nil {
		ex.mirrorMetrics()
	}
	return ex.res
}

// reviveSuspended returns every suspended state to the scheduler.
func (ex *Executor) reviveSuspended() {
	ex.res.Revivals++
	for _, s := range ex.suspended {
		s.Revived = true
		s.Status = StatusActive
		ex.sched.Add(s)
	}
	ex.suspended = ex.suspended[:0]
}

// emitProgress streams a snapshot of the live counters to the event sink,
// attached to the enclosing span (the per-candidate verify span in the
// pipeline). Called at most once per Obs.Interval from the scheduling
// loop, so a long quantum delays a snapshot by at most one batch.
func (ex *Executor) emitProgress() {
	phase := "explore"
	if ex.span != nil {
		phase = ex.span.Name
	}
	attrs := []obs.Attr{
		obs.A("phase", phase),
		obs.A("steps", ex.res.Steps),
		obs.A("paths", ex.res.Paths),
		obs.A("states_live", ex.liveStates()),
		obs.A("states_created", ex.res.StatesCreated),
		obs.A("suspended", len(ex.suspended)),
		obs.A("solver_checks", ex.Solver.Queries.Checks),
		obs.A("cache_hits", ex.Solver.Hits),
		obs.A("cache_reused", ex.Solver.Reused),
		obs.A("cache_misses", ex.Solver.Misses),
		obs.A("solver_wall_us", ex.Solver.WallTime().Microseconds()),
	}
	if ex.res.Epochs > 0 {
		attrs = append(attrs, obs.A("epochs", ex.res.Epochs))
	}
	if ex.res.SummaryCalls > 0 {
		attrs = append(attrs, obs.A("summary_calls", ex.res.SummaryCalls))
	}
	ex.obsv.Progress(ex.span, attrs...)
}

// mirrorMetrics folds the run's final counters into the shared metrics
// registry under the standard names. Done once at the end of the run —
// the hot loop touches no metric except the pre-resolved hop histogram.
func (ex *Executor) mirrorMetrics() {
	m := ex.obsv.Metrics
	r := ex.res
	m.Counter(obs.MetricSteps).Add(r.Steps)
	m.Counter(obs.MetricForks).Add(int64(r.Forks))
	m.Counter(obs.MetricPaths).Add(int64(r.Paths))
	m.Counter(obs.MetricStatesCreated).Add(int64(r.StatesCreated))
	m.Counter(obs.MetricStatesPruned).Add(ex.suspensions)
	m.Counter(obs.MetricRevivals).Add(int64(r.Revivals))
	m.Gauge(obs.MetricStatesLive).SetMax(int64(r.MaxLive))
	m.Counter(obs.MetricSolverChecks).Add(int64(r.SolverChecks))
	m.Counter(obs.MetricSolverSat).Add(int64(r.SolverSat))
	m.Counter(obs.MetricSolverUnsat).Add(int64(r.SolverUnsat))
	m.Counter(obs.MetricSolverUnknown).Add(int64(r.SolverUnknowns))
	m.Counter(obs.MetricCacheHits).Add(int64(r.CacheHits))
	m.Counter(obs.MetricCacheReused).Add(int64(r.CompReused))
	m.Counter(obs.MetricCacheMisses).Add(int64(r.CacheMisses))
	// Evictions split by cause: capacity pressure (r.CacheEvictions, the
	// historical meaning) vs origin invalidation after a code change. The
	// unsplit counter stays as the total for dashboard continuity.
	m.Counter(obs.MetricCacheEvictions).Add(int64(r.CacheEvictions) + int64(ex.Solver.Invalidations))
	m.Counter(obs.MetricCacheEvictionsCapacity).Add(int64(r.CacheEvictions))
	if ex.Solver.Invalidations > 0 {
		m.Counter(obs.MetricCacheEvictionsInvalidate).Add(int64(ex.Solver.Invalidations))
	}
	if ex.Solver.Shared != nil {
		// Per-executor contributions; summed across executors they equal
		// the SharedCache's own totals.
		m.Counter(obs.MetricSharedCacheHits).Add(int64(ex.Solver.SharedHits))
		m.Counter(obs.MetricSharedCacheMisses).Add(int64(ex.Solver.SharedMisses))
	}
	if r.SummaryCalls > 0 || r.SummaryPaths > 0 {
		m.Counter(obs.MetricSummaryCalls).Add(int64(r.SummaryCalls))
		m.Counter(obs.MetricSummaryPaths).Add(int64(r.SummaryPaths))
	}
	if r.HavocCalls > 0 {
		m.Counter(obs.MetricHavocCalls).Add(int64(r.HavocCalls))
	}
	if r.DepthExhausted > 0 {
		m.Counter(obs.MetricDepthExhausted).Add(int64(r.DepthExhausted))
	}
	if r.Epochs > 0 {
		m.Counter(obs.MetricEpochs).Add(r.Epochs)
	}
	if ex.Opts.Workers > 0 {
		m.Gauge(obs.MetricWorkers).SetMax(int64(ex.Opts.Workers))
	}
}

// noteInterrupt records why the context stopped the run: a deadline is a
// timeout (the classic resource abort), anything else is a cancellation.
func (ex *Executor) noteInterrupt(err error) {
	if err == context.DeadlineExceeded {
		ex.res.TimedOut = true
		return
	}
	ex.res.Cancelled = true
}

// runCtx returns the active run context (Background outside RunContext,
// e.g. for hook-driven solver calls issued from tests).
func (ex *Executor) runCtx() context.Context {
	if ex.ctx == nil {
		return context.Background()
	}
	return ex.ctx
}

// initialState runs $init (straight-line global initializers) and returns
// a state poised at main's entry.
func (ex *Executor) initialState() (*State, error) {
	prog := ex.Prog
	st := &State{ID: ex.nextID, Status: StatusActive}
	ex.nextID++
	st.Globals = make([]Value, len(prog.Globals))
	for i, g := range prog.Globals {
		if g.Type == minic.TypeString {
			st.Globals[i] = StrVal("")
		} else {
			st.Globals[i] = IntVal(0)
		}
	}
	initFn := prog.Funcs[prog.InitIndex]
	st.Frames = []*Frame{{Fn: initFn, Locals: make([]Value, initFn.NumLocals)}}
	for len(st.Frames) > 0 {
		children, suspend, done := ex.step(st)
		if len(children) > 0 || suspend {
			return nil, fmt.Errorf("symexec: global initializers must be deterministic")
		}
		if done {
			break
		}
	}
	if st.Status == StatusFaulted {
		return nil, fmt.Errorf("symexec: fault during global initialization")
	}
	// Enter main.
	st.Status = StatusActive
	mainFn := prog.Funcs[prog.MainIndex]
	st.Frames = []*Frame{{Fn: mainFn, Locals: make([]Value, mainFn.NumLocals)}}
	ex.fireLocation(st, trace.Location{Func: mainFn.Name, Kind: trace.EventEnter}, nil)
	return st, nil
}

func (ex *Executor) addState(st *State) {
	if st.ID < 0 {
		st.ID = ex.nextID
		ex.nextID++
	}
	st.seq = ex.nextSeq
	ex.nextSeq++
	ex.res.StatesCreated++
	if st.pendingSuspend {
		// The guidance hook suspended this child at its birth (per-path
		// Leave events of a summary application); park it directly.
		st.pendingSuspend = false
		ex.suspend(st)
	} else {
		st.Status = StatusActive
		ex.sched.Add(st)
	}
	if live := ex.liveStates(); live > ex.res.MaxLive {
		ex.res.MaxLive = live
	}
	if ex.liveStates() > ex.Opts.MaxStates {
		ex.res.Exhausted = true
		ex.stopped = true
	}
}

func (ex *Executor) liveStates() int {
	return ex.sched.Len() + len(ex.suspended)
}

// suspend parks st in the suspended pool: the guidance hook diverted it
// past the hop threshold.
func (ex *Executor) suspend(st *State) {
	st.Status = StatusSuspended
	ex.suspended = append(ex.suspended, st)
	ex.suspensions++
	if ex.hops != nil {
		ex.hops.Observe(int64(st.Diverted))
	}
}

// --- satisfiability plumbing ---

func allHold(cons []solver.Constraint, m *solver.Model) bool {
	for _, c := range cons {
		if !c.Holds(m) {
			return false
		}
	}
	return true
}

// satisfiable decides pc(st) ∧ extra. Three incremental fast paths avoid
// most full solver queries on long loop chains:
//
//  1. model check: the extras already hold under the cached model (and so
//     does the path condition — only the part not yet verified under this
//     model is evaluated);
//  2. bounds refutation: a single-variable extra contradicts the interval
//     the path condition implies for that variable;
//  3. disjoint solve: extras whose variables the path condition does not
//     mention are decided in isolation, and the cached model is edited to
//     bind their model's variables.
//
// A full query (fullQuery) looks up only the components the extras join,
// merged with them (KLEE's independence optimization), and the components
// without a record of their last check.
func (ex *Executor) satisfiable(st *State, extra ...solver.Constraint) (bool, *solver.Model) {
	// Stamp the query with its origin function's content hash (persistence
	// attribution; see Options.OriginHashes). The model-check shortcut
	// below issues no solver query, so stamping first costs nothing there.
	if ex.Opts.OriginHashes != nil && len(st.Frames) > 0 {
		if fn := st.Frames[len(st.Frames)-1].Fn; fn.Index < len(ex.Opts.OriginHashes) {
			ex.Solver.Origin = ex.Opts.OriginHashes[fn.Index]
		}
	}
	if st.LastModel != nil && allHold(extra, st.LastModel) && st.pcHolds() {
		return true, st.LastModel
	}
	if ex.refutedByBounds(st, extra) {
		return false, nil
	}
	if st.LastModel != nil && ex.disjointFromPC(st, extra) {
		res, m := ex.Solver.CheckCtx(ex.runCtx(), ex.Table, extra)
		switch res {
		case solver.Sat:
			merged := st.LastModel.Edit()
			merged.Merge(m)
			nm := merged.Model()
			// m binds no path-condition variable, so what held under the
			// cached model holds under nm.
			ex.derive(st, nm, st.held)
			return true, nm
		case solver.Unsat:
			return false, nil
		}
		// Unknown: fall through to the full query.
	}
	res, m := ex.fullQuery(st, extra)
	switch res {
	case solver.Sat:
		return true, m
	case solver.Unsat:
		return false, nil
	default:
		// Unknown: explore optimistically (sound for vulnerability search:
		// definite faults are still confirmed by concrete witnesses).
		return true, nil
	}
}

// fullQuery decides pc(st) ∧ extra through the solver cache. It looks up
// only the groups the extras form and the path-condition components that
// hold no record; every other component is answered by its record. A
// satisfiable query's model is the state's previous full-query model
// edited: its repairs undone and the bindings of the looked-up components
// set, so it costs what changes, not the model's size. It equals the
// union of every component's model. When the executor keeps records
// (recording), a satisfiable query records each component it looked up
// alone and becomes the state's query model.
func (ex *Executor) fullQuery(st *State, extra []solver.Constraint) (solver.Result, *solver.Model) {
	q, pc := &ex.query, st.pc()
	look, after := pc.lookups(q, extra)
	if len(look) == 0 && after == 0 {
		return ex.Solver.CheckComponents(ex.runCtx(), ex.Table, nil)
	}
	if res := ex.Solver.LookupComponents(ex.runCtx(), ex.Table, look, after); res != solver.Sat {
		return res, nil
	}
	var m *solver.Model
	switch qm := st.qm; {
	case len(look) == 1 && look[0].Before == 0 && after == 0:
		m = look[0].Model
	case qm == nil:
		// No record anywhere in the lineage, so every component was
		// looked up.
		b := look[0].Model.Edit()
		for _, c := range look[1:] {
			b.Merge(c.Model)
		}
		m = b.Model()
	default:
		// Repair the base: drop the bindings no component holds, and
		// restore the components answered by their records now.
		b := qm.m.Edit()
		for _, v := range qm.fresh {
			b.Delete(v)
		}
		for _, s := range qm.restore {
			_, joined := slices.BinarySearchFunc(q.touch, int(s), func(tc pcTouch, s int) int { return tc.slot - s })
			if c := pc.comps.at(int(s)); c != nil && c.model != nil && !joined {
				b.Merge(c.model)
			}
		}
		for _, c := range look {
			b.Merge(c.Model)
		}
		m = b.Model()
	}
	if ex.recording(pc) {
		ex.record(st, m, extra)
	}
	// m is the union of models of every component, which share no
	// variables, so the whole path condition holds under it.
	ex.derive(st, m, st.pc().len())
	return solver.Sat, m
}

// derive records that the first held constraints of pc(st) hold under m.
func (ex *Executor) derive(st *State, m *solver.Model, held int) {
	if held > 0 {
		ex.derived = derivedModel{m: m, path: st.path, gen: st.pc().gen, held: held}
	}
}

// derivedHeld returns how many leading constraints of pc(st) are known to
// hold under m: the prefix derive recorded for m and this very path
// condition, or 0.
func (ex *Executor) derivedHeld(st *State, m *solver.Model) int {
	if d := &ex.derived; d.m == m && d.path == st.path && d.gen == st.pc().gen {
		return d.held
	}
	return 0
}

// recordMinSlots is the number of component slots a path condition must
// exceed before its full queries record verdicts. Recording costs every
// query a query model and every commit a settle, while a record saves one
// cache lookup per component, so it pays only on long path conditions.
// Pure-mode BFS to the state budget never queries a path condition of
// more than 16 slots on the bundled programs (2 to 7 on average), and
// slowed down by records; guided grep's queries hold more than 16 but
// for 59 of 15,011, and guided thttpd's about 570 components.
const recordMinSlots = 16

// recording reports whether a full query of pc records component
// verdicts: when pc has more than recordMinSlots slots, and the run keeps
// records at all. A record stands for a lookup in the cache that made it,
// so only a run whose states always query one cache keeps them: the lone
// slot of a width-1 run, which checks with the run's own solver. Wider
// epochs give each slot its own cache, and the cache-disabled ablation
// has none.
func (ex *Executor) recording(pc *pathCond) bool {
	return pc.comps.len() > recordMinSlots && ex.Opts.width() == 1 && !ex.Solver.Disabled
}

// record files the verdicts of a satisfiable full query whose lookups are
// in ex.query: each path-condition component it looked up alone records
// its model, and m becomes the state's query model.
func (ex *Executor) record(st *State, m *solver.Model, extra []solver.Constraint) {
	q := &ex.query
	p, tok := st.pathForWrite()
	qm := &queryModel{m: m, restore: make([]int32, len(q.touch))}
	for i, tc := range q.touch {
		qm.restore[i] = int32(tc.slot)
	}
	for i, s := range q.slots {
		if s >= 0 {
			p.pc.keep(tok, s, q.look[i].Model)
			qm.recorded = append(qm.recorded, int32(s))
		}
	}
	for _, c := range extra {
		for _, tm := range c.E.Terms {
			if !p.pc.mentions(tm.Var) {
				qm.fresh = append(qm.fresh, tm.Var)
			}
		}
	}
	st.qm, st.qmPrev = qm, st.qm
}

// disjointFromPC reports whether no extra constraint mentions a variable
// of the path condition.
func (ex *Executor) disjointFromPC(st *State, extra []solver.Constraint) bool {
	for _, c := range extra {
		for _, tm := range c.E.Terms {
			if st.pc().mentions(tm.Var) {
				return false
			}
		}
	}
	return true
}

// refutedByBounds reports a cheap contradiction: a single-variable extra
// constraint incompatible with the interval implied by the path condition
// plus the variable's intrinsic bounds.
func (ex *Executor) refutedByBounds(st *State, extra []solver.Constraint) bool {
	for _, c := range extra {
		v, coeff, single := c.E.SingleVar()
		if !single || (coeff != 1 && coeff != -1) {
			continue
		}
		b := st.pc().bounds(v)
		info := ex.Table.Info(v)
		if info.HasLo && (!b.HasLo || info.Lo > b.Lo) {
			b.Lo, b.HasLo = info.Lo, true
		}
		if info.HasHi && (!b.HasHi || info.Hi < b.Hi) {
			b.Hi, b.HasHi = info.Hi, true
		}
		switch {
		case c.Op == solver.OpLe && coeff == 1: // v <= k
			if k := -c.E.Const; b.HasLo && b.Lo > k {
				return true
			}
		case c.Op == solver.OpLe && coeff == -1: // v >= k
			if k := c.E.Const; b.HasHi && b.Hi < k {
				return true
			}
		case c.Op == solver.OpEq:
			k := -c.E.Const
			if coeff == -1 {
				k = c.E.Const
			}
			if (b.HasLo && k < b.Lo) || (b.HasHi && k > b.Hi) {
				return true
			}
		case c.Op == solver.OpNe:
			k := -c.E.Const
			if coeff == -1 {
				k = c.E.Const
			}
			if b.HasLo && b.HasHi && b.Lo == k && b.Hi == k {
				return true
			}
		}
	}
	return false
}

// commit appends constraints to the path condition and installs the model
// that witnesses them. A model satisfiable derived for this path condition
// comes with the prefix it is known to satisfy, so the model shortcut
// evaluates only the constraints committed since.
func (ex *Executor) commit(st *State, m *solver.Model, cons ...solver.Constraint) {
	if m != nil && m != st.LastModel {
		st.LastModel, st.held = m, ex.derivedHeld(st, m)
	}
	for _, c := range cons {
		addPathConstraint(st, c)
	}
	st.settleQuery()
}

// TryAddConstraints applies predicate constraints to a state if they are
// consistent with its path condition; reports whether they were applied.
// Used by the guidance hook for intra-function predicate gating (§VI-C).
func (ex *Executor) TryAddConstraints(st *State, cons []solver.Constraint) bool {
	if len(cons) == 0 {
		return true
	}
	ok, m := ex.satisfiable(st, cons...)
	if !ok {
		return false
	}
	ex.commit(st, m, cons...)
	return true
}

// seedModelValue installs a seed assignment into a state's cached model
// without disturbing solver-derived bindings. It only creates a model when
// the path condition is still empty (so the invariant "the cached model
// satisfies the path condition" holds trivially) and never overwrites an
// existing binding.
func (ex *Executor) seedModelValue(st *State, v solver.Var, val int64) {
	if st.LastModel == nil {
		if st.pc().len() > 0 {
			return
		}
		var b solver.ModelBuilder
		b.Set(v, val)
		st.LastModel = b.Model()
		return
	}
	if _, exists := st.LastModel.Get(v); exists {
		return
	}
	ex.extendModel(st, v, val)
}

// maybeSeedStr seeds a symbolic string's length (and records the value for
// byte seeding) when a seed input supplies the channel.
func (ex *Executor) maybeSeedStr(st *State, v Value, kind byte, name string, argIdx int64) {
	if v.Kind != KindString || v.Str == nil || v.Str.IsLit {
		return
	}
	seed, ok := ex.inputs.seedStr(kind, name, argIdx)
	if !ok {
		return
	}
	ex.inputs.noteSeedStr(v.Str.ID, seed)
	ex.seedModelValue(st, v.Str.LenVar, int64(len(seed)))
}

// extendModel installs var=val into the state's cached model, as a new
// model derived from it: models are shared across forks.
func (ex *Executor) extendModel(st *State, v solver.Var, val int64) {
	if st.LastModel == nil {
		return
	}
	st.extendedModel(st.LastModel.With(v, val), v)
}

// addPathConstraint adds c to the path condition, compacting
// single-variable bounds so loop chains do not grow it linearly (x ≥ 6
// subsumes x ≥ 5, and replaces it in place).
func addPathConstraint(st *State, c solver.Constraint) {
	if c.IsTriviallyTrue() {
		return
	}
	if v, coeff, ok := c.E.SingleVar(); ok && (coeff == 1 || coeff == -1) && c.Op == solver.OpLe {
		pc := st.pc()
		if i := pc.boundIndex(v, coeff); i >= 0 {
			// Same form: coeff·v + k ≤ 0. Larger k is tighter; a looser
			// bound changes nothing.
			if c.E.Const >= pc.cons.at(i).E.Const {
				p, tok := st.pathForWrite()
				p.pc.replace(tok, i, c)
				if i < st.held && !c.Holds(st.LastModel) {
					st.held = i
				}
			}
			return
		}
	}
	p, tok := st.pathForWrite()
	p.pc.add(tok, c)
}

// --- vulnerability reporting ---

func (ex *Executor) report(st *State, kind interp.FaultKind, pos minic.Pos, m *solver.Model, extra ...solver.Constraint) {
	if m == nil {
		// Unknown-model detection: confirm with a full query.
		ok, mm := ex.satisfiable(st, extra...)
		if !ok || mm == nil {
			return
		}
		m = mm
	}
	v := &Vulnerability{
		Kind:        kind,
		Func:        st.CurrentFunc(),
		Pos:         pos,
		Path:        st.Trace(),
		Constraints: append(st.Constraints(), extra...),
		Model:       m,
		Witness:     ex.inputs.witness(m),
	}
	if ex.seen(v) {
		return
	}
	ex.res.Vulns = append(ex.res.Vulns, v)
	if ex.Opts.StopAtFirstVuln {
		ex.stopped = true
	}
}

// seen reports whether a vulnerability at v's site is already recorded —
// for a slot, by this quantum or by its run (the merge would drop the
// duplicate, so the slot must not stop on it either).
func (ex *Executor) seen(v *Vulnerability) bool {
	for _, prev := range ex.res.Vulns {
		if prev.Site() == v.Site() {
			return true
		}
	}
	return ex.parent != nil && ex.parent.seen(v)
}

// SymbolicInputs lists the symbolic channels registered so far.
func (ex *Executor) SymbolicInputs() []string { return ex.inputs.symbolicInputNames() }

// fireLocation records a location crossing and runs the guidance hook.
func (ex *Executor) fireLocation(st *State, loc trace.Location, ret *Value) HookDecision {
	p, tok := st.pathForWrite()
	p.trace.push(tok, loc)
	if ex.Opts.Hook == nil {
		return HookContinue
	}
	view := &VarView{ex: ex, st: st, loc: loc, ret: ret}
	return ex.Opts.Hook(ex, st, loc, view)
}

// VarView resolves logged-variable names to runtime values at a location,
// mirroring what the monitor records (globals, parameters, return value).
// The guidance hook uses it to turn statistical predicates into solver
// constraints over the state's live values.
type VarView struct {
	ex  *Executor
	st  *State
	loc trace.Location
	ret *Value
}

// Param returns the named parameter of the function just entered.
func (v *VarView) Param(name string) (Value, bool) {
	if v.loc.Kind != trace.EventEnter {
		return Value{}, false
	}
	fr := v.st.Top()
	for i, pn := range fr.Fn.ParamNames {
		if pn == name {
			return fr.Locals[i], true
		}
	}
	return Value{}, false
}

// Global returns the named global's current value.
func (v *VarView) Global(name string) (Value, bool) {
	idx := v.ex.Prog.GlobalIndex(name)
	if idx < 0 {
		return Value{}, false
	}
	return v.st.Globals[idx], true
}

// Return returns the function's return value at an exit location.
func (v *VarView) Return() (Value, bool) {
	if v.loc.Kind != trace.EventLeave || v.ret == nil {
		return Value{}, false
	}
	return *v.ret, true
}

// Result returns the (live) result record; final after Run returns.
func (ex *Executor) Result() *Result { return ex.res }

// Coverage reports the fraction of each function's instructions executed
// at least once across all explored states (the $init function is
// excluded). The paper's §VI-C notes StatSym preserves the baseline's
// code-coverage capability; this surfaces the measurement.
func (ex *Executor) Coverage() map[string]float64 {
	out := make(map[string]float64, len(ex.Prog.Funcs))
	for _, fn := range ex.Prog.Funcs {
		if fn.Name == bytecode.InitFuncName || len(fn.Code) == 0 {
			continue
		}
		visited := 0
		if v := ex.visits[fn.Index]; v != nil {
			for _, count := range v {
				if count > 0 {
					visited++
				}
			}
		}
		out[fn.Name] = float64(visited) / float64(len(fn.Code))
	}
	return out
}

// TotalCoverage is the instruction-weighted aggregate of Coverage.
func (ex *Executor) TotalCoverage() float64 {
	total, visited := 0, 0
	for _, fn := range ex.Prog.Funcs {
		if fn.Name == bytecode.InitFuncName {
			continue
		}
		total += len(fn.Code)
		if v := ex.visits[fn.Index]; v != nil {
			for _, count := range v {
				if count > 0 {
					visited++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(visited) / float64(total)
}
