package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/symexec"
)

// layers accumulates the per-layer figures of a traced run. Every figure
// is measured from outside the program: wall time around a public call,
// runtime.MemStats deltas around it, and the counts the call returns.
type layers struct {
	mu sync.Mutex

	compileS float64

	monitorS           float64
	corpora            int
	runsExec, runsKept int
	logBytes           int64

	ingestLat   []float64
	ingestRuns  int
	ingestBytes int64
	ingestS     float64

	// In-process jobs: the per-job and share figures divide by these.
	jobs int
	jobS float64

	statsS, pathidS        float64
	predicates, candidates int

	verifyS                 float64
	attempts, attemptsFound int
	attemptSteps, wasted    int64 // steps of candidate attempts; of those that did not verify
	steps                   int64 // every executor step, attempts and pure runs
	paths                   int
	execS                   float64 // time inside executor calls
	allocBytes, mallocs     uint64
	gcCycles                uint32
	pureRuns, stateBudget   int
	lookups, hits, checks   int64
	solveS                  float64

	submit, queueWait, run, notify, report []float64
	overhead                               []float64
	submissions, refusals                  int
	engineRun                              map[string][]float64

	self         map[string]time.Duration
	overheadFrac float64
	untracedP50  float64
	tracedP50    float64
}

func newLayers() *layers { return &layers{engineRun: map[string][]float64{}} }

// memDelta is an allocation delta around one call.
type memDelta struct {
	alloc, mallocs uint64
	gc             uint32
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gc:      after.NumGC - before.NumGC,
	}
}

func (l *layers) addCompile(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compileS += d.Seconds()
}

func (l *layers) addCorpus(d time.Duration, executed, kept int, logBytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.monitorS += d.Seconds()
	l.corpora++
	l.runsExec += executed
	l.runsKept += kept
	l.logBytes += int64(logBytes)
}

func (l *layers) addIngest(d time.Duration, runs int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ingestLat = append(l.ingestLat, d.Seconds())
	l.ingestS += d.Seconds()
	l.ingestRuns += runs
	l.ingestBytes += bytes
}

func (l *layers) addJob(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs++
	l.jobS += d.Seconds()
}

func (l *layers) addStats(d time.Duration, predicates int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.statsS += d.Seconds()
	l.predicates += predicates
}

func (l *layers) addPathid(d time.Duration, candidates int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pathidS += d.Seconds()
	l.candidates += candidates
}

// addAttempt folds one guided candidate attempt (core.VerifyCandidateCtx).
func (l *layers) addAttempt(o core.CandidateOutcome, d time.Duration, m memDelta) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.verifyS += d.Seconds()
	l.execS += d.Seconds()
	l.attempts++
	if o.Found {
		l.attemptsFound++
	} else {
		l.wasted += o.Steps
	}
	l.attemptSteps += o.Steps
	l.steps += o.Steps
	l.paths += o.Paths
	l.addMem(m)
	l.lookups += int64(o.CacheHits + o.CacheMisses)
	l.hits += int64(o.CacheHits)
	l.checks += int64(o.SolverChecks)
	l.solveS += o.SolverTime.Seconds()
}

// addPure folds one pure BFS run (core.RunPureContext).
func (l *layers) addPure(res *symexec.Result, d time.Duration, m memDelta) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.execS += d.Seconds()
	l.pureRuns++
	if res.Exhausted {
		l.stateBudget++
	}
	l.steps += res.Steps
	l.paths += res.Paths
	l.addMem(m)
	l.lookups += int64(res.CacheHits + res.CacheMisses)
	l.hits += int64(res.CacheHits)
	l.checks += int64(res.SolverChecks)
	l.solveS += res.SolverTime.Seconds()
}

func (l *layers) addMem(m memDelta) {
	l.allocBytes += m.alloc
	l.mallocs += m.mallocs
	l.gcCycles += m.gc
}

// addServiceJob folds the daemon-side timeline of one job.
func (l *layers) addServiceJob(r *result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submissions += 1 + r.Refused
	l.refusals += r.Refused
	if r.Finished.IsZero() {
		return
	}
	l.submit = append(l.submit, r.SubmitDur.Seconds())
	l.queueWait = append(l.queueWait, r.Started.Sub(r.Submitted).Seconds())
	run := r.Finished.Sub(r.Started).Seconds()
	l.run = append(l.run, run)
	l.notify = append(l.notify, r.StreamEnd.Sub(r.Finished).Seconds())
	l.report = append(l.report, r.ReportDur.Seconds())
	l.engineRun[r.Job.Engine] = append(l.engineRun[r.Job.Engine], run)
}

func (l *layers) addOverhead(d float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.overhead = append(l.overhead, d)
}

// selfSpanNames are the span names whose summed self time the traced run
// reports, one metric each.
var selfSpanNames = []string{
	"setup", "compile", "monitor", "ingest", "job", "stats", "pathid", "verify",
	"symexec", "warmup", "submit", "queue", "run", "notify", "report", "reference", "materialize",
}

// metric is one named figure with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics returns every per-layer metric in a fixed order; a layer the
// workload does not exercise reports 0.
func (l *layers) metrics() []metric {
	l.mu.Lock()
	defer l.mu.Unlock()
	jobs := float64(l.jobs)
	steps := float64(l.steps)
	out := []metric{
		{"compile.s", l.compileS, "s"},
		{"monitor.s_per_corpus", ratio(l.monitorS, float64(l.corpora)), "s"},
		{"monitor.us_per_run", ratio(l.monitorS*1e6, float64(l.runsExec)), "us"},
		{"monitor.runs_executed_per_corpus", ratio(float64(l.runsExec), float64(l.corpora)), "count"},
		{"monitor.kept_ratio", ratio(float64(l.runsKept), float64(l.runsExec)), "ratio"},
		{"monitor.log_kb_per_corpus", ratio(float64(l.logBytes)/1024, float64(l.corpora)), "KiB"},
		{"corpus.ingest_s_p50", median(l.ingestLat), "s"},
		{"corpus.ingest_runs_per_s", ratio(float64(l.ingestRuns), l.ingestS), "1/s"},
		{"corpus.ingest_mb_per_s", ratio(float64(l.ingestBytes)/(1<<20), l.ingestS), "MB/s"},
		{"stats.s_per_job", ratio(l.statsS, jobs), "s"},
		{"stats.share", ratio(l.statsS, l.jobS), "ratio"},
		{"stats.predicates_per_job", ratio(float64(l.predicates), jobs), "count"},
		{"pathid.s_per_job", ratio(l.pathidS, jobs), "s"},
		{"pathid.share", ratio(l.pathidS, l.jobS), "ratio"},
		{"pathid.candidates_per_job", ratio(float64(l.candidates), jobs), "count"},
		{"core.verify_s_per_job", ratio(l.verifyS, jobs), "s"},
		{"core.verify_share", ratio(l.verifyS, l.jobS), "ratio"},
		{"core.attempts_per_job", ratio(float64(l.attempts), jobs), "count"},
		{"core.found_per_attempt", ratio(float64(l.attemptsFound), float64(l.attempts)), "ratio"},
		{"core.wasted_steps_frac", ratio(float64(l.wasted), float64(l.attemptSteps)), "ratio"},
		{"symexec.steps_per_job", ratio(steps, jobs), "count"},
		{"symexec.paths_per_job", ratio(float64(l.paths), jobs), "count"},
		{"symexec.us_per_step", ratio(l.execS*1e6, steps), "us"},
		{"symexec.alloc_bytes_per_step", ratio(float64(l.allocBytes), steps), "B"},
		{"symexec.mallocs_per_step", ratio(float64(l.mallocs), steps), "count"},
		{"symexec.gc_cycles_per_job", ratio(float64(l.gcCycles), jobs), "count"},
		{"symexec.state_budget_frac", ratio(float64(l.stateBudget), float64(l.pureRuns)), "ratio"},
		{"solver.lookups_per_step", ratio(float64(l.lookups), steps), "count"},
		{"solver.hit_ratio", ratio(float64(l.hits), float64(l.lookups)), "ratio"},
		{"solver.checks_per_job", ratio(float64(l.checks), jobs), "count"},
		{"solver.solve_s_per_job", ratio(l.solveS, jobs), "s"},
		{"solver.solve_share", ratio(l.solveS, l.jobS), "ratio"},
		{"service.submit_s_p50", median(l.submit), "s"},
		{"service.queue_wait_s_p50", median(l.queueWait), "s"},
		{"service.run_s_p50", median(l.run), "s"},
		{"service.notify_s_p50", median(l.notify), "s"},
		{"service.report_s_p50", median(l.report), "s"},
		{"service.overhead_s_per_job", ratio(sum(l.overhead), float64(len(l.overhead))), "s"},
		{"service.rejected_frac", ratio(float64(l.refusals), float64(l.submissions)), "ratio"},
	}
	for _, e := range engines {
		out = append(out, metric{"core.run_s_p50." + e, median(l.engineRun[e]), "s"})
	}
	for _, n := range selfSpanNames {
		out = append(out, metric{"self_s." + n, l.self[n].Seconds(), "s"})
	}
	out = append(out,
		metric{"trace.overhead_frac", l.overheadFrac, "ratio"},
		metric{"trace.untraced_job_s_p50", l.untracedP50, "s"},
		metric{"trace.traced_job_s_p50", l.tracedP50, "s"},
	)
	return out
}
