// Command statsym runs the full StatSym pipeline on one of the four
// evaluation applications: collect sampled logs from random user runs,
// perform statistical analysis (predicates + candidate paths), and drive
// statistics-guided symbolic execution until the vulnerable path is
// verified. With -pure it instead runs the unguided baseline (KLEE-style
// pure symbolic execution) for comparison.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	corpusstore "repro/internal/corpus"
	"repro/internal/dispatch"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/report"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "statsym:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg core.Config
	core.BindFlags(flag.CommandLine, &cfg)
	lopts := live.BindFlags(flag.CommandLine, "statsym", false)
	var (
		appName   = flag.String("app", "polymorph", "application: polymorph, ctree, thttpd, grep (paper) or msgtool, billing (extensions)")
		corpusIn  = flag.String("corpus", "", "analyze a pre-collected corpus file (from cmd/monitor) instead of collecting logs")
		corpusDir = flag.String("corpus-dir", "", "use a segmented on-disk corpus store at this directory: reuse it if it holds runs, otherwise collect into it; analysis then streams off disk")
		rate      = flag.Float64("rate", 0.3, "log sampling rate (0..1]")
		seed      = flag.Int64("seed", 1, "workload and sampling seed")
		runs      = flag.Int("runs", workload.DefaultRuns, "correct and faulty runs to collect (each)")
		tau       = flag.Int("tau", core.DefaultTau, "hop divergence threshold τ")
		pure      = flag.Bool("pure", false, "run the pure symbolic execution baseline instead")
		maxStates = flag.Int("max-states", 0, "live-state budget (0: default)")
		maxSteps  = flag.Int64("max-steps", 0, "instruction budget (0: default)")
		timeout   = flag.Duration("timeout", 0, "wall-clock bound for symbolic execution (0: none)")
		cacheDir  = flag.String("cache-dir", "", "persist solver-cache verdicts across runs in this directory: prior verdicts warm-start this run (verified on load), fresh ones spill back; wall-clock only, detections are unaffected")
		increment = flag.Bool("incremental", false, "with -cache-dir: diff the cache manifest's function hashes against the program and re-run only candidate paths crossing changed functions")
		dispatchF = flag.Bool("dispatch", false, "add one verification slot per -worker-addrs worker next to the local slots (each ships whole attempts to its worker); detections and the digest are identical to the sequential loop for any topology")
		workerStr = flag.String("worker-addrs", "", "comma-separated dispatch worker addresses (unix:/path or tcp:host:port), each one a `symexec -serve-worker` process; empty with -dispatch runs local-only")
		dispLog   = flag.String("dispatch-log", "", "append a JSONL audit trail of dispatch scheduling decisions (steal, redispatch, merge) to this file")
		unitDl    = flag.Duration("unit-deadline", 0, "per-unit round-trip deadline before a worker is declared hung and its unit re-run locally (0: 10m default)")
		verbose   = flag.Bool("v", false, "print predicates and candidate paths")
		minimize  = flag.Bool("minimize", false, "shrink the witness input via concrete replays")
		dotOut    = flag.String("dot", "", "write the transition graph (Graphviz DOT) to this file")
		witOut    = flag.String("witness-out", "", "write the witness input (JSON) to this file for replay")
		htmlOut   = flag.String("html", "", "write a self-contained HTML report to this file")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the pipeline cooperatively: symbolic execution
	// stops within one scheduling quantum and the partial report (and any
	// requested artifacts) is still emitted below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rt, err := live.Init(*lopts)
	if err != nil {
		return err
	}
	defer func() {
		if err := rt.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "statsym: obs:", err)
		}
	}()
	defer rt.DumpOnPanic()
	o := rt.Obs()
	ctx = rt.Context(ctx)
	dumpMetrics := func() {
		if o != nil && lopts.Metrics {
			fmt.Print(o.Metrics.Format())
		}
	}
	defer dumpMetrics()

	app, err := apps.Get(*appName)
	if err != nil {
		return err
	}
	fmt.Printf("== %s: %s\n", app.Name, app.Description)

	if *increment && *cacheDir == "" {
		return fmt.Errorf("-incremental requires -cache-dir")
	}
	if *increment {
		plan, err := core.PlanIncremental(*cacheDir, app.Program())
		if err != nil {
			return err
		}
		fmt.Printf("-- %s\n", plan.Describe())
	}

	if *pure {
		fmt.Println("-- pure symbolic execution (baseline)")
		start := time.Now()
		pctx, pspan := obs.StartSpan(ctx, "pure", obs.A("app", app.Name))
		res := core.RunPureWorkers(pctx, app.Program(), app.Spec, *maxStates, *maxSteps, *timeout, cfg.Workers)
		pspan.End(obs.A("paths", res.Paths), obs.A("steps", res.Steps), obs.A("found", res.Found()))
		if res.Found() {
			rt.NoteFault()
		}
		printPureResult(res, time.Since(start))
		return nil
	}

	// One root span covers corpus collection and the guided pipeline;
	// core.RunJob reuses it instead of opening a second root.
	ctx, root := obs.StartSpan(ctx, "pipeline", obs.A("app", app.Name), obs.A("rate", *rate))
	defer root.End()

	cfg.Tau = *tau
	cfg.Spec = app.Spec
	cfg.PerCandidateTimeout = *timeout
	if *maxSteps > 0 {
		cfg.PerCandidateMaxSteps = *maxSteps
	}
	cfg.MaxStates = *maxStates
	cfg.CacheDir = *cacheDir
	cfg.Incremental = *increment
	cfg.NeedGraph = *dotOut != ""
	cfg.Dispatch = *dispatchF
	cfg.WorkerAddrs = dispatch.ParseAddrs(*workerStr)
	cfg.DispatchLog = *dispLog
	cfg.UnitDeadline = *unitDl
	if len(cfg.WorkerAddrs) > 0 && !cfg.Dispatch {
		return fmt.Errorf("-worker-addrs requires -dispatch")
	}

	in := core.JobInputs{Prog: app.Program(), Spec: app.Spec}
	var monElapsed time.Duration
	// interrupted reports a SIGINT during collection: a cooperative stop,
	// not a failure; there is no corpus yet, so there is no report.
	interrupted := func(err error) bool {
		if errors.Is(err, context.Canceled) {
			fmt.Println("RESULT: interrupted during log collection — no report")
			return true
		}
		return false
	}
	switch {
	case *corpusDir != "":
		// Store-backed pipeline: the statistical front-end streams off the
		// segmented store instead of materializing the corpus.
		store, err := corpusstore.Create(*corpusDir, app.Name)
		if err != nil {
			return err
		}
		if store.TotalRuns() > 0 {
			fmt.Printf("-- reusing corpus store %s (%d runs, %d segments)\n",
				*corpusDir, store.TotalRuns(), len(store.Segments()))
		} else {
			fmt.Printf("-- collecting %d correct + %d faulty runs at %.0f%% sampling into %s\n",
				*runs, *runs, *rate*100, *corpusDir)
			monStart := time.Now()
			err := workload.BuildCorpusStoreCtx(ctx, app, workload.Options{
				SampleRate: *rate, Seed: *seed, Correct: *runs, Faulty: *runs,
			}, store, corpusstore.Options{})
			if err != nil {
				if interrupted(err) {
					return nil
				}
				return err
			}
			monElapsed = time.Since(monStart)
		}
		nR, nL, nV, err := store.Counts()
		if err != nil {
			return err
		}
		fmt.Printf("   corpus store: %d runs, %d locations, %d variables, %d KB on disk in %d segments (collected in %v)\n",
			nR, nL, nV, store.TotalBytes()/1024, len(store.Segments()), monElapsed.Round(time.Millisecond))
		in.Store = store
	case *corpusIn != "":
		corpus, err := trace.ReadFile(*corpusIn)
		if err != nil {
			return err
		}
		if corpus.Program != app.Name {
			return fmt.Errorf("corpus %s was collected for %q, not %q", *corpusIn, corpus.Program, app.Name)
		}
		fmt.Printf("-- loaded corpus %s\n", *corpusIn)
		in.Corpus = corpus
	default:
		fmt.Printf("-- collecting %d correct + %d faulty runs at %.0f%% sampling\n", *runs, *runs, *rate*100)
		monStart := time.Now()
		corpus, err := workload.BuildCorpusCtx(ctx, app, workload.Options{
			SampleRate: *rate, Seed: *seed, Correct: *runs, Faulty: *runs,
		})
		if err != nil {
			if interrupted(err) {
				return nil
			}
			return err
		}
		monElapsed = time.Since(monStart)
		in.Corpus = corpus
	}
	if in.Corpus != nil {
		nR, nL, nV := in.Corpus.Counts()
		fmt.Printf("   corpus: %d runs, %d locations, %d variables, ~%d KB (collected in %v)\n",
			nR, nL, nV, in.Corpus.SizeBytes()/1024, monElapsed.Round(time.Millisecond))
	}

	rep, err := core.RunJob(ctx, in, cfg)
	if err != nil {
		return err
	}
	rep.MonTime = monElapsed
	if rep.Found() {
		rt.NoteFault()
	}
	return printReport(rep, app, o, verbose, dotOut, htmlOut, witOut, minimize)
}

// printReport renders the pipeline report.
func printReport(rep *core.Report, app *apps.App, o *obs.Obs,
	verbose *bool, dotOut, htmlOut, witOut *string, minimize *bool) error {
	statNote := ""
	if rep.StatsCached {
		statNote = ", replayed from cache"
	}
	fmt.Printf("-- statistical analysis: %v (predicates: %d, detours: %d, candidates: %d%s)\n",
		rep.StatTime.Round(time.Millisecond), len(rep.Analysis.Predicates),
		rep.Detours(), len(rep.PathRes.Candidates), statNote)
	if *verbose {
		fmt.Println("   top predicates:")
		for i, p := range rep.Analysis.Top(10) {
			fmt.Printf("     P%-2d %-45s @ %s (score %.3f)\n", i+1, p.String(), p.Loc, p.Score)
		}
		fmt.Printf("   skeleton (%d nodes):\n", len(rep.PathRes.Skeleton))
		for _, l := range rep.PathRes.Skeleton {
			fmt.Printf("     %s\n", l)
		}
		for i, cand := range rep.PathRes.Candidates {
			fmt.Printf("   candidate %d: %d nodes, avg score %.3f, %d detours\n",
				i+1, cand.Len(), cand.AvgScore, cand.Detours)
		}
	}
	if *dotOut != "" {
		dot := rep.PathRes.Graph.WriteDOT(rep.Analysis, rep.PathRes.Skeleton)
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Printf("   transition graph written to %s\n", *dotOut)
	}
	fmt.Printf("-- symbolic execution: %v\n", rep.SymTime.Round(time.Millisecond))
	for _, c := range rep.Candidates {
		status := "no vulnerability"
		switch {
		case c.Found:
			status = "VULNERABLE PATH FOUND"
		case c.Cancelled:
			status = "cancelled"
		case c.Infeasible:
			status = "infeasible / abandoned"
		}
		fmt.Printf("   candidate %d (len %d): %s — %d paths, %d steps, %d suspensions, %v (solver: %d checks, %d hits / %d misses, %v)\n",
			c.Index, c.PathLen, status, c.Paths, c.Steps, c.Suspends, c.Elapsed.Round(time.Millisecond),
			c.SolverChecks, c.CacheHits, c.CacheMisses, c.SolverTime.Round(time.Microsecond))
	}
	if rep.SkippedCandidates > 0 {
		fmt.Printf("   incremental: %d candidate paths skipped (no changed function on the path)\n",
			rep.SkippedCandidates)
	}
	if rep.DispatchRemote+rep.DispatchLocal+rep.DispatchRedispatched+rep.DispatchWorkersDead > 0 {
		fmt.Printf("-- dispatch: remote=%d local=%d redispatched=%d dead-workers=%d\n",
			rep.DispatchRemote, rep.DispatchLocal, rep.DispatchRedispatched, rep.DispatchWorkersDead)
	}
	if rep.PersistLoaded+rep.PersistHits+rep.PersistSpilled+rep.PersistRejected+rep.PersistInvalidated > 0 {
		fmt.Printf("-- solver cache: %d loaded, %d warm hits, %d spilled, %d rejected, %d invalidated\n",
			rep.PersistLoaded, rep.PersistHits, rep.PersistSpilled, rep.PersistRejected, rep.PersistInvalidated)
	}
	fmt.Printf("-- detection digest: %s\n", core.DigestToken(rep))
	writeHTML := func() error {
		if *htmlOut == "" {
			return nil
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if o != nil {
			err = report.WriteHTMLWithMetrics(f, rep, time.Now().Format("2006-01-02 15:04:05"), o.Metrics.Snapshot())
		} else {
			err = report.WriteHTML(f, rep, time.Now().Format("2006-01-02 15:04:05"))
		}
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("   HTML report written to %s\n", *htmlOut)
		return nil
	}
	if !rep.Found() {
		if rep.Cancelled {
			fmt.Printf("RESULT: interrupted — partial report (%d of %d candidates attempted)\n",
				len(rep.Candidates), len(rep.PathRes.Candidates))
		} else {
			fmt.Println("RESULT: vulnerable path not found")
		}
		return writeHTML()
	}
	v := rep.Vuln
	fmt.Printf("RESULT: %s in %s at %s (candidate %d, %d paths total)\n",
		v.Kind, v.Func, v.Pos, rep.CandidateUsed, rep.TotalPaths)
	fmt.Println("   vulnerable path:")
	for _, loc := range v.Path {
		fmt.Printf("     %s\n", loc)
	}
	fmt.Println("   path constraints:")
	max := len(v.Constraints)
	if max > 20 {
		max = 20
	}
	for _, c := range v.Constraints[:max] {
		fmt.Printf("     %s\n", c.String(nil))
	}
	if len(v.Constraints) > max {
		fmt.Printf("     ... (%d more)\n", len(v.Constraints)-max)
	}
	fmt.Println("   witness input:")
	if v.Witness != nil {
		for k, val := range v.Witness.Ints {
			fmt.Printf("     int %s = %d\n", k, val)
		}
		for k, val := range v.Witness.Strs {
			fmt.Printf("     string %s = %s\n", k, summarize(val))
		}
		for k, val := range v.Witness.Env {
			fmt.Printf("     env %s = %s\n", k, summarize(val))
		}
		if len(v.Witness.Args) > 0 {
			fmt.Printf("     args =")
			for _, a := range v.Witness.Args {
				fmt.Printf(" %s", summarize(a))
			}
			fmt.Println()
		}
	}
	if err := writeHTML(); err != nil {
		return err
	}
	if *witOut != "" && v.Witness != nil {
		if err := interp.SaveInput(*witOut, v.Witness); err != nil {
			return err
		}
		fmt.Printf("   witness written to %s (replay: symexec -app %s -replay %s)\n",
			*witOut, app.Name, *witOut)
	}
	if *minimize && v.Witness != nil {
		min, replays := core.MinimizeWitness(app.Program(), v.Witness, 512)
		fmt.Printf("   minimized witness (%d replays):\n", replays)
		for k, val := range min.Ints {
			fmt.Printf("     int %s = %d\n", k, val)
		}
		for k, val := range min.Strs {
			fmt.Printf("     string %s = %s\n", k, summarize(val))
		}
		for k, val := range min.Env {
			fmt.Printf("     env %s = %s\n", k, summarize(val))
		}
		if len(min.Args) > 0 {
			fmt.Printf("     args =")
			for _, a := range min.Args {
				fmt.Printf(" %s", summarize(a))
			}
			fmt.Println()
		}
	}
	return nil
}

func summarize(s string) string {
	if len(s) <= 48 {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%q... (%d bytes)", s[:32], len(s))
}

func printPureResult(res *symexec.Result, elapsed time.Duration) {
	switch {
	case res.Found():
		v := res.Vulns[0]
		fmt.Printf("RESULT: %s in %s after %d paths, %d steps (%v)\n",
			v.Kind, v.Func, res.Paths, res.Steps, elapsed.Round(time.Millisecond))
	case res.Exhausted:
		fmt.Printf("RESULT: FAILED — state budget exhausted (max live %d) after %d paths, %d steps (%v)\n",
			res.MaxLive, res.Paths, res.Steps, elapsed.Round(time.Millisecond))
	case res.StepLimited:
		fmt.Printf("RESULT: FAILED — step budget exhausted after %d paths (%v)\n", res.Paths, elapsed.Round(time.Millisecond))
	case res.TimedOut:
		fmt.Printf("RESULT: FAILED — timed out after %d paths (%v)\n", res.Paths, elapsed.Round(time.Millisecond))
	case res.Cancelled:
		fmt.Printf("RESULT: interrupted after %d paths, %d steps (%v)\n",
			res.Paths, res.Steps, elapsed.Round(time.Millisecond))
	default:
		fmt.Printf("RESULT: explored all %d paths without finding a vulnerability (%v)\n",
			res.Paths, elapsed.Round(time.Millisecond))
	}
}
