package symexec

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/solver"
)

// This file implements the executor's scheduling loop: KLEE's
// select–execute–fork cycle, run in epochs. Each epoch:
//
//  1. Draft: up to width states are popped from the scheduler in its
//     canonical order, on the main goroutine.
//  2. Execute: each drafted state runs one scheduling quantum on its own
//     slot (static stride assignment: worker w takes drafted slots w,
//     w+W, ...). Slots never touch shared mutable structures except
//     through the locked input registry and the copy-on-write state
//     internals, both of which are order-independent.
//  3. Merge: on the main goroutine, in draft order, each slot's outcome is
//     folded back (mergeOut).
//
// Width 1 (Options.Workers=0, the default) is the paper's loop: pick a
// state, run it for a quantum, re-insert it and its forked children,
// consult the scheduler again. Wider epochs (Workers >= 1, EpochWidth
// states per epoch) step their slots concurrently.
//
// One merge rule serves every width: the merge surfaces what running the
// drafted quanta back to back in draft order would have produced, up to
// that run's stop point. Each slot therefore gets the draft-time headroom
// of the step and state budgets and ends its quantum where a lone quantum
// would stop mid-way; the merge adds a slot's children before its
// vulnerabilities (a vulnerability ends its quantum, so every child was
// forked by an earlier step) and returns at the first stop.
//
// Determinism argument: everything that influences exploration — the draft
// sequence, each quantum's execution, and the merge order — is a function
// of the width and the program, never of the worker count. Every drafted
// slot runs its quantum to completion even when an earlier slot's outcome
// will stop the run; post-stop slots are then discarded wholesale at merge.
// Per-slot solvers are persistent across epochs, so slot i's cache-counter
// sequence is also worker-count independent. Hence Workers=1 and Workers=N
// produce byte-identical Results, and the differential tests pin exactly
// that.
//
// Above width 1, variable identity is kept deterministic by lane-striped
// allocation (solver.LaneGroup): slot i allocates fresh solver variables
// from lane i, the main executor from lane width, and the input registry's
// overflow path from lane width+1, so concurrent allocations never depend
// on interleaving. A lone slot allocates from the dense table instead,
// which keeps width-1 runs checkpointable.

// quantumOut is the collected outcome of one scheduling quantum executed
// on a slot: forked children in creation order, plus the drafted state's
// disposition. The children buffer is reused across epochs.
type quantumOut struct {
	children []*State
	suspend  bool
	done     bool
}

// runQuantumCollect executes up to BatchSize instructions of st on a slot.
// Instead of mutating the scheduler, the suspended pool, and the run's
// result, it collects the quantum's outcome into out for the merge. Step
// and fork deltas accumulate in the slot's private res; vulnerabilities in
// its private Vulns list. The quantum also ends once its steps reach
// stepRoom or its children exceed stateRoom — the points where the merge
// will stop the run on the step or state budget.
func (sx *Executor) runQuantumCollect(st *State, out *quantumOut, stepRoom int64, stateRoom int) {
	out.children = out.children[:0]
	out.suspend, out.done = false, false
	for i := 0; i < BatchSize; i++ {
		children, suspend, done := sx.step(st)
		if len(children) > 0 {
			out.children = append(out.children, children...)
			if len(out.children) > stateRoom {
				return
			}
		}
		if suspend {
			out.suspend = true
			return
		}
		if done {
			out.done = true
			return
		}
		if sx.stopped || sx.res.Steps >= stepRoom {
			return
		}
	}
}

// newSlot builds a slot view of the executor: shared program, variable
// table, input registry, visit counters and options; private result
// deltas, solver stack, and variable lane.
func (ex *Executor) newSlot(lane *solver.Lane, cs *solver.CachedSolver) *Executor {
	return &Executor{
		Prog:   ex.Prog,
		Table:  ex.Table,
		Solver: cs,
		Opts:   ex.Opts,
		inputs: ex.inputs,
		res:    &Result{},
		ctx:    ex.ctx,
		visits: ex.visits,
		lane:   lane,
		parent: ex,
	}
}

// resetDeltas clears a slot's per-quantum accumulators.
func (sx *Executor) resetDeltas() {
	*sx.res = Result{Vulns: sx.res.Vulns[:0]}
	sx.stopped = false
}

// mergeOut folds one quantum's outcome into the main executor; it is the
// only path from a quantum into the Result. The caller owns the executor
// (the epoch merge phase). A quantum merged after the run has stopped is
// discarded wholesale — its deltas never surface, which is deterministic
// because the stop point is.
func (ex *Executor) mergeOut(sx *Executor, st *State, out *quantumOut) {
	if sx.visitDelta != nil {
		// Visit counts always merge — every drafted slot runs to completion
		// regardless of worker count, so the sums are schedule-deterministic
		// even for quanta whose other deltas are discarded below.
		ex.flushVisits(sx)
	}
	defer sx.resetDeltas()
	if ex.stopped {
		return
	}
	ex.res.Steps += sx.res.Steps
	ex.res.Forks += sx.res.Forks
	ex.res.SummaryCalls += sx.res.SummaryCalls
	ex.res.SummaryPaths += sx.res.SummaryPaths
	ex.res.HavocCalls += sx.res.HavocCalls
	ex.res.DepthExhausted += sx.res.DepthExhausted
	for _, child := range out.children {
		ex.addState(child)
		if ex.stopped {
			return
		}
	}
	for _, v := range sx.res.Vulns {
		if ex.seen(v) {
			continue
		}
		ex.res.Vulns = append(ex.res.Vulns, v)
		if ex.Opts.StopAtFirstVuln {
			ex.stopped = true
			break
		}
	}
	switch {
	case out.done:
		// Counted even when this quantum's vulnerability stops the run: a
		// faulted state completed its path.
		ex.res.Paths++
	case ex.stopped:
	case out.suspend:
		ex.suspend(st)
	default:
		ex.sched.Add(st)
	}
}

// foldSlotSolver adds a slot solver's counters into the main solver's, so
// the common counter fold in RunContext sees the whole run. Wall time is
// tracked separately (extraWall) because WallTime is internally atomic.
func (ex *Executor) foldSlotSolver(sx *Executor) {
	ex.Solver.Queries.Checks += sx.Solver.Queries.Checks
	ex.Solver.Queries.Sat += sx.Solver.Queries.Sat
	ex.Solver.Queries.Unsat += sx.Solver.Queries.Unsat
	ex.Solver.Queries.Unknown += sx.Solver.Queries.Unknown
	ex.Solver.Hits += sx.Solver.Hits
	ex.Solver.Reused += sx.Solver.Reused
	ex.Solver.Misses += sx.Solver.Misses
	ex.Solver.Evictions += sx.Solver.Evictions
	ex.Solver.SharedHits += sx.Solver.SharedHits
	ex.Solver.SharedMisses += sx.Solver.SharedMisses
	ex.extraWall += sx.Solver.WallTime()
}

// frontier is the epoch loop's run state.
type frontier struct {
	ex      *Executor
	workers int // goroutines (wall-clock only)
	slots   []*Executor
	drafted []*State
	outs    []quantumOut
	// stepRoom and stateRoom are this epoch's draft-time budget headroom,
	// read by every slot.
	stepRoom  int64
	stateRoom int
	// Engine metrics, kept only for observed runs wider than one slot.
	busy  []time.Duration
	fill  *obs.Histogram
	start time.Time
}

// installLanes carves the executor's variable table into deterministic
// lanes: one per slot, one for the main executor, one for the registry's
// overflow path. Called once, before any worker starts.
func (ex *Executor) installLanes(nslots int) *solver.LaneGroup {
	group := ex.Table.NewLaneGroup(nslots + 2)
	ex.lane = group.Lane(nslots)
	ex.inputs.mu.Lock()
	ex.inputs.overflow = group.Lane(nslots + 1)
	ex.inputs.mu.Unlock()
	return group
}

func newFrontier(ex *Executor, width, workers int) *frontier {
	f := &frontier{
		ex:      ex,
		workers: workers,
		slots:   make([]*Executor, width),
		drafted: make([]*State, 0, width),
		outs:    make([]quantumOut, width),
	}
	if width == 1 {
		// A lone slot steps with the executor's own solver, which is idle
		// during an epoch, and counts visits straight into the run's
		// arrays: exactly the state one quantum of the paper's loop
		// touches.
		f.slots[0] = ex.newSlot(nil, ex.Solver)
		return f
	}
	group := ex.installLanes(width)
	shared := ex.Opts.SharedCache
	if shared == nil && workers > 1 {
		// Workers within one attempt share physical solves; counters are
		// unaffected (see solver.CachedSolver.Shared), so Workers=1 without
		// a shared cache still matches Workers=N with one.
		shared = solver.NewSharedCache(0)
	}
	if shared != nil {
		ex.Solver.Shared = shared
	}
	for i := range f.slots {
		cs := ex.Solver
		if i > 0 {
			cs = solver.NewCached(solver.New())
			cs.Shared = shared
		}
		sx := ex.newSlot(group.Lane(i), cs)
		// Buffered visit counters: plain increments during the quantum,
		// flushed at the merge barrier (see recordVisit).
		sx.visitDelta = make([][]int64, len(ex.Prog.Funcs))
		for j, fn := range ex.Prog.Funcs {
			sx.visitDelta[j] = make([]int64, len(fn.Code))
		}
		sx.visitDirty = make([]visitRef, 0, BatchSize)
		f.slots[i] = sx
	}
	if ex.obsv != nil {
		f.fill = ex.obsv.Metrics.Histogram(obs.MetricEpochFill, obs.EpochFillBuckets...)
		f.busy = make([]time.Duration, workers)
		f.start = time.Now()
	}
	return f
}

// runEpochs is the executor's scheduling loop.
func (ex *Executor) runEpochs() {
	width := ex.Opts.width()
	workers := min(max(ex.Opts.Workers, 1), width)
	f := newFrontier(ex, width, workers)
	f.run()
	f.finish()
}

func (f *frontier) run() {
	ex := f.ex
	for !ex.stopped {
		if ex.res.Steps >= ex.Opts.MaxSteps {
			ex.res.StepLimited = true
			return
		}
		if err := ex.ctx.Err(); err != nil {
			ex.noteInterrupt(err)
			return
		}
		if ex.obsv != nil && ex.obsv.Interval > 0 && time.Since(ex.lastSnap) >= ex.obsv.Interval {
			ex.emitProgress()
			ex.lastSnap = time.Now()
		}
		// Draft in canonical scheduler order. The suspended pool is revived
		// only when the scheduler is empty before anything was drafted, so
		// children of this epoch's quanta run before revived states (the
		// guidance fallback, paper footnote 1).
		f.drafted = f.drafted[:0]
		for len(f.drafted) < len(f.slots) {
			cur := ex.sched.Next()
			if cur == nil {
				if len(f.drafted) > 0 || len(ex.suspended) == 0 {
					break
				}
				ex.reviveSuspended()
				continue
			}
			f.drafted = append(f.drafted, cur)
		}
		if len(f.drafted) == 0 {
			return
		}
		ex.res.Epochs++
		if f.fill != nil {
			f.fill.Observe(int64(len(f.drafted)))
		}
		f.stepRoom = ex.Opts.MaxSteps - ex.res.Steps
		f.stateRoom = ex.Opts.MaxStates - ex.liveStates()
		f.dispatch()
		for i, st := range f.drafted {
			ex.mergeOut(f.slots[i], st, &f.outs[i])
		}
	}
}

// dispatch executes every drafted slot's quantum, on the caller when one
// worker suffices, else on a static-stride worker pool. All drafted slots
// always run to completion — even if an earlier slot's outcome will stop
// the run — so guidance bookkeeping and per-slot solver counters are
// independent of the worker count.
func (f *frontier) dispatch() {
	w := min(f.workers, len(f.drafted))
	if w > 1 {
		// Goroutines beyond the runnable-thread limit cannot overlap and
		// only pay scheduling latency at the epoch barrier. Results are
		// unchanged: draft order, quantum boundaries, and merge order
		// depend only on the width, never on how slots are spread across
		// workers.
		w = min(w, runtime.GOMAXPROCS(0))
	}
	if w <= 1 {
		f.runSlots(0, 1)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk, w int) {
			defer wg.Done()
			f.runSlots(wk, w)
		}(wk, w)
	}
	wg.Wait()
}

// runSlots runs drafted slots wk, wk+stride, ... on the calling goroutine.
func (f *frontier) runSlots(wk, stride int) {
	var t0 time.Time
	if f.busy != nil {
		t0 = time.Now()
	}
	for i := wk; i < len(f.drafted); i += stride {
		f.slots[i].runQuantumCollect(f.drafted[i], &f.outs[i], f.stepRoom, f.stateRoom)
	}
	if f.busy != nil {
		f.busy[wk] += time.Since(t0)
	}
}

// finish folds the slots' solver counters and emits the engine metrics.
func (f *frontier) finish() {
	ex := f.ex
	for i, sx := range f.slots {
		// Per-slot solver wall is recorded before the fold collapses it
		// into the run total, so traces keep the split by lane instead of
		// one undifferentiated accumulation.
		if f.busy != nil {
			if w := sx.Solver.WallTime(); w > 0 {
				ex.obsv.Metrics.Counter(obs.SlotSolverWallMetric(i)).Add(int64(w))
			}
		}
		if sx.Solver != ex.Solver {
			ex.foldSlotSolver(sx)
		}
	}
	if f.busy == nil {
		return
	}
	var busy time.Duration
	for _, b := range f.busy {
		busy += b
	}
	m := ex.obsv.Metrics
	m.Counter(obs.MetricWorkerBusyNanos).Add(int64(busy))
	if elapsed := time.Since(f.start); elapsed > 0 {
		util := 100 * int64(busy) / (int64(elapsed) * int64(f.workers))
		m.Gauge(obs.MetricWorkerUtilPct).SetMax(util)
	}
}
