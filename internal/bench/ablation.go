package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/solver"
	"repro/internal/solver/persist"
	"repro/internal/symexec"
	"repro/internal/workload"
)

// AblationRow is one configuration's outcome on one app.
type AblationRow struct {
	Program string
	Config  string
	Found   bool
	Paths   int
	Steps   int64
	Elapsed time.Duration
	// SolverWall is the wall clock spent inside physical solver checks
	// (cache hits excluded), when the ablation records it.
	SolverWall time.Duration
	Failed     bool // resource exhaustion without a find
	// Summary-cache telemetry (summaries ablation): calls replaced by
	// memoized summaries, cache hits across every candidate attempt, and
	// summaries mined. Hits > Mined means later attempts were served from
	// earlier attempts' mining work.
	SummaryCalls int   `json:",omitempty"`
	SummaryHits  int64 `json:",omitempty"`
	SummaryMined int64 `json:",omitempty"`
	// Persistent solver-cache telemetry (solvercache ablation): entries
	// loaded+verified at warm start, lookup hits served from them, entries
	// spilled to disk, and verified-on-load rejections. Digest is the
	// run's detection digest so cold/warm equality is checkable from the
	// ledger alone.
	PersistLoaded  int64  `json:",omitempty"`
	PersistHits    int64  `json:",omitempty"`
	PersistSpilled int64  `json:",omitempty"`
	PersistRejects int64  `json:",omitempty"`
	Digest         string `json:",omitempty"`
}

// guidedRow is the ablation row of one guided pipeline report, timed by
// its symbolic-execution phase.
func guidedRow(program, config string, rep *core.Report) AblationRow {
	return AblationRow{Program: program, Config: config, Found: rep.Found(),
		Paths: rep.TotalPaths, Steps: rep.TotalSteps, Elapsed: rep.SymTime, Failed: !rep.Found()}
}

// pureRow is the ablation row of one pure symbolic-execution run; a miss
// is a failure only when a budget stopped the run.
func pureRow(program, config string, res *symexec.Result) AblationRow {
	return AblationRow{Program: program, Config: config, Found: res.Found(),
		Paths: res.Paths, Steps: res.Steps, Elapsed: res.Elapsed,
		Failed: !res.Found() && (res.Exhausted || res.StepLimited || res.TimedOut)}
}

// FormatAblation renders any ablation row set.
func FormatAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	solverCol, summaryCol, persistCol := false, false, false
	for _, r := range rows {
		if r.SolverWall > 0 {
			solverCol = true
		}
		if r.SummaryCalls > 0 || r.SummaryHits > 0 || r.SummaryMined > 0 {
			summaryCol = true
		}
		if strings.HasPrefix(r.Config, "solvercache=") {
			persistCol = true
		}
	}
	fmt.Fprintf(&sb, "%-10s %-22s %6s %8s %12s %12s", "Program", "config", "found", "paths", "steps", "time")
	if solverCol {
		fmt.Fprintf(&sb, " %12s", "solver")
	}
	if summaryCol {
		fmt.Fprintf(&sb, " %9s %9s %6s", "sumcalls", "hits", "mined")
	}
	if persistCol {
		fmt.Fprintf(&sb, " %7s %7s %8s %7s %7s", "loaded", "p-hits", "reuse", "spilled", "rejects")
	}
	sb.WriteString("\n")
	for _, r := range rows {
		status := fmt.Sprintf("%v", r.Found)
		if r.Failed {
			status = "FAILED"
		}
		fmt.Fprintf(&sb, "%-10s %-22s %6s %8d %12d %12s",
			r.Program, r.Config, status, r.Paths, r.Steps, r.Elapsed.Round(time.Millisecond))
		if solverCol {
			fmt.Fprintf(&sb, " %12s", r.SolverWall.Round(time.Millisecond))
		}
		if summaryCol {
			fmt.Fprintf(&sb, " %9d %9d %6d", r.SummaryCalls, r.SummaryHits, r.SummaryMined)
		}
		if persistCol {
			rate := "-"
			if r.PersistLoaded > 0 {
				rate = fmt.Sprintf("%5.1f%%", 100*float64(r.PersistHits)/float64(r.PersistLoaded))
			}
			fmt.Fprintf(&sb, " %7d %7d %8s %7d %7d",
				r.PersistLoaded, r.PersistHits, rate, r.PersistSpilled, r.PersistRejects)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// AblationScheduler compares unguided schedulers (BFS, DFS, random,
// coverage) against StatSym guidance on every app. It isolates how much of
// StatSym's win is scheduling (depth-first chase) versus statistical
// pruning.
func AblationScheduler(ctx context.Context, seed int64, budgets Budgets) ([]AblationRow, error) {
	var rows []AblationRow
	for _, app := range apps.All() {
		scheds := []func() symexec.Scheduler{
			func() symexec.Scheduler { return symexec.NewBFS() },
			func() symexec.Scheduler { return symexec.NewDFS() },
			func() symexec.Scheduler { return symexec.NewRandom(seed) },
			func() symexec.Scheduler { return symexec.NewCoverage() },
		}
		for _, mk := range scheds {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			sched := mk()
			res := pureWithScheduler(ctx, app, sched, budgets)
			rows = append(rows, pureRow(app.Name, "pure/"+sched.Name(), res))
		}
		rep, err := RunPipeline(ctx, app, 0.3, seed, budgets)
		if err != nil {
			return nil, err
		}
		rows = append(rows, guidedRow(app.Name, "statsym", rep))
	}
	return rows, nil
}

// AblationGuidance disables StatSym's two guidance mechanisms one at a
// time: full guidance, inter-function only (no predicates), intra-function
// only (no hop suspension), and neither (guided scheduler alone).
func AblationGuidance(ctx context.Context, seed int64, budgets Budgets) ([]AblationRow, error) {
	configs := []struct {
		name               string
		disInter, disPreds bool
	}{
		{"guided/full", false, false},
		{"guided/inter-only", false, true},
		{"guided/intra-only", true, false},
		{"guided/neither", true, true},
	}
	var rows []AblationRow
	for _, app := range apps.All() {
		corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
		if err != nil {
			return nil, err
		}
		for _, c := range configs {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			cfg := budgets.Guided
			cfg.Spec = app.Spec
			cfg.Workers, cfg.Scope, cfg.Summaries, cfg.CacheDir = 0, "", false, ""
			cfg.DisableInter, cfg.DisablePredicates = c.disInter, c.disPreds
			rep, err := core.RunJob(ctx, core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, guidedRow(app.Name, c.name, rep))
		}
	}
	return rows, nil
}

// AblationTau sweeps the hop threshold τ on one app (default thttpd, whose
// candidate paths are longest).
func AblationTau(ctx context.Context, appName string, taus []int, seed int64, budgets Budgets) ([]AblationRow, error) {
	if len(taus) == 0 {
		taus = []int{0, 1, 2, 5, 10, 20, 50}
	}
	app, err := apps.Get(appName)
	if err != nil {
		return nil, err
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, tau := range taus {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		cfg := budgets.Guided
		cfg.Spec = app.Spec
		cfg.Workers, cfg.Scope, cfg.Summaries, cfg.CacheDir = 0, "", false, ""
		cfg.Tau, cfg.MinPredScore = tau, core.DefaultMinPredScore
		if tau == 0 {
			cfg.Tau = -1 // τ=0: any off-path hop suspends (Config treats 0 as default)
		}
		rep, err := core.RunJob(ctx, core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, guidedRow(app.Name, fmt.Sprintf("tau=%d", tau), rep))
	}
	return rows, nil
}

// AblationFrontier sweeps the in-candidate frontier worker count on the
// three widest-frontier apps, in two regimes: the guided pipeline
// ("guided/workers=N", symbolic-execution wall time) and the pure BFS
// baseline ("pure-bfs/workers=N", whole-run wall time). workers=0 steps
// one state per epoch; workers>=1 drafts wider epochs, whose counters are
// identical across worker counts within each regime — the determinism
// guarantee — so any row-to-row delta among them is pure wall-clock
// scaling (epoch rows can differ from workers=0 only at budget
// boundaries; see DESIGN.md §11).
func AblationFrontier(ctx context.Context, workerCounts []int, seed int64, budgets Budgets) ([]AblationRow, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{0, 1, 2, 4}
	}
	var rows []AblationRow
	for _, name := range []string{"polymorph", "thttpd", "grep"} {
		app, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
		if err != nil {
			return nil, err
		}
		for _, w := range workerCounts {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			cfg := budgets.Guided
			cfg.Spec = app.Spec
			cfg.Parallel, cfg.Scope, cfg.Summaries, cfg.CacheDir = 0, "", false, ""
			cfg.Workers = w
			rep, err := core.RunJob(ctx, core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, guidedRow(app.Name, fmt.Sprintf("guided/workers=%d", w), rep))
		}
		for _, w := range workerCounts {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			res := core.RunPureWorkers(ctx, app.Program(), app.Spec,
				budgets.PureMaxStates, budgets.PureMaxSteps, budgets.PureTimeout, w)
			row := pureRow(app.Name, fmt.Sprintf("pure-bfs/workers=%d", w), res)
			row.SolverWall = res.SolverTime
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblationSolverCache compares the exact-match query cache (the default)
// with uncached constraint solving on polymorph's pure baseline,
// quantifying what query caching buys this engine.
func AblationSolverCache(ctx context.Context, budgets Budgets) ([]AblationRow, error) {
	app, err := apps.Get("polymorph")
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, name := range []string{"solver-cache=on", "solver-cache=off"} {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		opts := symexec.DefaultOptions()
		opts.Sched = symexec.NewBFS()
		opts.MaxStates = budgets.PureMaxStates
		opts.MaxSteps = budgets.PureMaxSteps
		opts.Timeout = budgets.PureTimeout
		ex := symexec.New(app.Program(), app.Spec, opts)
		if name == "solver-cache=off" {
			ex.Solver = solver.NewCached(solver.New())
			ex.Solver.Disabled = true // every query goes straight to the solver
		}
		res := ex.RunContext(ctx)
		rows = append(rows, AblationRow{
			Program:    app.Name,
			Config:     name,
			Found:      res.Found(),
			Paths:      res.Paths,
			Steps:      res.Steps,
			Elapsed:    res.Elapsed,
			SolverWall: res.SolverTime,
		})
	}
	return rows, nil
}

// AblationSolverCachePersist measures the persistent cross-run solver cache
// end to end on every app: a cold run against an empty store, a warm run
// against the store the cold run sealed, and a warm run after simulating an
// edit of the hottest function (the origin with the most cached entries is
// tombstoned, so its verdicts are invalidated at load). The corpus is built
// once per app outside the timed region, so each row's time is the analysis
// wall — statistics, candidate construction, and guided symbolic execution —
// the quantity a warm start accelerates. Each row records the run's
// detection-digest token: cold and warm MUST agree, including after the
// simulated edit (re-verification makes staleness a speed question only).
// solverCacheReps is how many times each cold/warm configuration is timed;
// the fastest rep is reported (standard min-of-N to shed scheduler noise).
const solverCacheReps = 3

func AblationSolverCachePersist(ctx context.Context, seed int64, budgets Budgets) ([]AblationRow, error) {
	baseDir := budgets.Guided.CacheDir
	if baseDir == "" {
		dir, err := os.MkdirTemp("", "statsym-solvercache-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		baseDir = dir
	}
	var rows []AblationRow
	// The differential tests pin cold-vs-warm digests on this five-app set
	// (the paper's four plus msgtool); the ablation measures the same set.
	programs := append(apps.All(), apps.MsgTool())
	for _, app := range programs {
		corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
		if err != nil {
			return nil, err
		}
		cacheDir := filepath.Join(baseDir, app.Name)
		run := func(config string) (AblationRow, error) {
			if err := ctx.Err(); err != nil {
				return AblationRow{}, err
			}
			cfg := budgets.Guided
			cfg.Spec = app.Spec
			cfg.DisableSharedCache, cfg.Scope, cfg.Summaries = false, "", false
			cfg.CacheDir = cacheDir
			start := time.Now()
			rep, err := core.RunJob(ctx, core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, cfg)
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Program:        app.Name,
				Config:         config,
				Found:          rep.Found(),
				Paths:          rep.TotalPaths,
				Steps:          rep.TotalSteps,
				Elapsed:        time.Since(start),
				SolverWall:     rep.SolverTime,
				Failed:         !rep.Found(),
				PersistLoaded:  rep.PersistLoaded,
				PersistHits:    rep.PersistHits,
				PersistSpilled: rep.PersistSpilled,
				PersistRejects: rep.PersistRejected,
				Digest:         core.DigestToken(rep),
			}, nil
		}
		// Cold and warm carry the headline ratio, and at millisecond scale a
		// single sample is scheduler noise — take the best of solverCacheReps
		// runs, keeping each rep's semantics exact: every cold rep starts
		// from a wiped store, every warm rep replays the identical sealed
		// store (a warm run spills nothing, so reps don't interfere).
		// Determinism makes all reps' counters and digests identical; only
		// the clock varies.
		best := func(config string, before func() error) (AblationRow, error) {
			var min AblationRow
			for i := 0; i < solverCacheReps; i++ {
				if before != nil {
					if err := before(); err != nil {
						return AblationRow{}, err
					}
				}
				row, err := run(config)
				if err != nil {
					return AblationRow{}, err
				}
				if i == 0 || row.Elapsed < min.Elapsed {
					min = row
				}
			}
			return min, nil
		}
		cold, err := best("solvercache=cold", func() error { return os.RemoveAll(cacheDir) })
		if err != nil {
			return rows, err
		}
		warm, err := best("solvercache=warm", nil)
		if err != nil {
			return rows, err
		}
		// Simulate an edit of the hottest function: tombstone the origin
		// with the most cached verdicts, then run once (the run re-spills
		// the invalidated verdicts, so repeating it would measure a store
		// with duplicate entries, not the edit).
		if _, _, err := persist.TombstoneHeaviest(cacheDir); err != nil {
			return rows, err
		}
		edit, err := run("solvercache=warm-edit")
		if err != nil {
			return rows, err
		}
		rows = append(rows, cold, warm, edit)
	}
	return rows, nil
}

// AblationSummaries compares full interpretation ("calls=interpret") against
// memoized function summaries with a full-coverage scope
// ("calls=summarize") on every app, holding the corpus fixed. Detections are
// pinned byte-identical between the two modes by the differential tests
// (core.DetectionDigest), so the rows quantify pure effort: wall time plus
// the summary cache's telemetry — hits far above mined means later candidate
// attempts were served entirely from earlier attempts' mining work. Apps
// whose guided runs never cross a summarizable call (sumcalls=0) are the
// control group: both rows must be step-identical.
func AblationSummaries(ctx context.Context, seed int64, budgets Budgets) ([]AblationRow, error) {
	var rows []AblationRow
	for _, app := range apps.All() {
		corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
		if err != nil {
			return nil, err
		}
		for _, summarize := range []bool{false, true} {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			cfg := budgets.Guided
			cfg.Spec = app.Spec
			cfg.Workers, cfg.CacheDir = 0, ""
			cfg.Summaries = summarize
			rep, err := core.RunJob(ctx, core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, cfg)
			if err != nil {
				return nil, err
			}
			name := "calls=interpret"
			if summarize {
				name = "calls=summarize"
			}
			row := guidedRow(app.Name, name, rep)
			row.SummaryCalls, row.SummaryHits, row.SummaryMined = rep.SummaryCalls, rep.SummaryHits, rep.SummaryMined
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblationDispatch measures the coordinator/worker dispatch backend
// against the in-process sequential loop on polymorph, thttpd, and grep:
// dispatch off, dispatch local-only (the backend's own scheduling with no
// workers), then 1, 2, and 4 workers. Workers are served in-process over
// unix sockets, so the rows pay the full unit codec + framing + socket
// round-trip cost of a real worker process while staying hermetic for CI.
// Wall clock is min-of-3 per configuration (scheduling noise dominates
// single runs at these durations); detections are pinned — every dispatch
// row must reproduce the sequential row's digest or the ablation fails.
// On a single-core host the worker rows measure protocol overhead, not
// speedup: the workers share the one CPU with the coordinator.
func AblationDispatch(ctx context.Context, workerCounts []int, seed int64, budgets Budgets) ([]AblationRow, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{0, 1, 2, 4}
	}
	const reps = 3
	maxWorkers := 0
	for _, n := range workerCounts {
		if n > maxWorkers {
			maxWorkers = n
		}
	}
	// One shared worker pool for the whole ablation; each configuration
	// addresses a prefix of it.
	sockDir, err := os.MkdirTemp("", "statsym-dispatch-ablation")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sockDir)
	addrs := make([]string, maxWorkers)
	for i := range addrs {
		addrs[i] = filepath.Join(sockDir, fmt.Sprintf("w%d.sock", i))
		l, err := dispatch.Listen(addrs[i])
		if err != nil {
			return nil, err
		}
		defer l.Close()
		go dispatch.Serve(l, core.NewDispatchRunner(core.WorkerConfig{}))
	}

	var rows []AblationRow
	for _, name := range []string{"polymorph", "thttpd", "grep"} {
		app, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
		if err != nil {
			return nil, err
		}
		base := budgets.Guided
		base.Spec = app.Spec
		base.Parallel, base.Workers, base.Scope, base.Summaries, base.CacheDir = 0, 0, "", false, ""
		configs := []struct {
			label string
			n     int // -1: dispatch off (sequential loop)
		}{{"dispatch/off", -1}}
		for _, n := range workerCounts {
			label := fmt.Sprintf("dispatch/workers=%d", n)
			if n == 0 {
				label = "dispatch/local"
			}
			configs = append(configs, struct {
				label string
				n     int
			}{label, n})
		}
		refDigest := ""
		for _, c := range configs {
			cfg := base
			if c.n >= 0 {
				cfg.Dispatch = true
				cfg.WorkerAddrs = addrs[:c.n]
			}
			var best *core.Report
			for rep := 0; rep < reps; rep++ {
				if err := ctx.Err(); err != nil {
					return rows, err
				}
				r, err := core.RunJob(ctx, core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, cfg)
				if err != nil {
					return nil, err
				}
				if best == nil || r.SymTime < best.SymTime {
					best = r
				}
			}
			digest := core.DigestToken(best)
			if refDigest == "" {
				refDigest = digest
			} else if digest != refDigest {
				return nil, fmt.Errorf("dispatch ablation: %s %s digest %s diverged from sequential %s",
					name, c.label, digest, refDigest)
			}
			row := guidedRow(app.Name, c.label, best)
			row.Digest = digest
			rows = append(rows, row)
		}
	}
	return rows, nil
}
