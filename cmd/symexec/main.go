// Command symexec runs pure (unguided) symbolic execution — the KLEE
// baseline — on one of the evaluation applications or an arbitrary MiniC
// source file, with a selectable state scheduler.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/solver"
	"repro/internal/solver/persist"
	"repro/internal/summary"
	"repro/internal/symexec"
	"repro/internal/symexec/snapshot"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "symexec:", err)
		os.Exit(1)
	}
}

func run() error {
	lopts := live.BindFlags(flag.CommandLine, "symexec", false)
	var (
		appName   = flag.String("app", "", "app: polymorph, ctree, thttpd, grep, msgtool, billing")
		file      = flag.String("file", "", "MiniC source file to analyze instead of -app")
		schedName = flag.String("sched", "bfs", "scheduler: bfs, dfs, random, coverage")
		seed      = flag.Int64("seed", 1, "seed for the random scheduler")
		maxStates = flag.Int("max-states", 0, "live-state budget (0: default)")
		maxSteps  = flag.Int64("max-steps", 0, "instruction budget (0: default)")
		timeout   = flag.Duration("timeout", 60*time.Second, "wall-clock bound")
		maxStr    = flag.Int64("max-str", 0, "symbolic string length bound for -file runs (0: default)")
		all       = flag.Bool("all", false, "keep searching after the first vulnerability")
		replay    = flag.String("replay", "", "seed exploration with a witness input (JSON, from statsym -witness-out)")
		cov       = flag.Bool("cov", false, "report instruction coverage after the run")
		cacheDir  = flag.String("cache-dir", "", "persist solver-cache verdicts across runs in this directory (verified on load; wall-clock only)")
		scope     = flag.String("scope", "", "interpretation scope policy: \"\" or \"all\" interprets everything; \"all,-f,-g\" havocs f and g; \"f,g\" interprets exactly that list plus main")
		summaries = flag.Bool("summaries", false, "replace summarizable in-scope calls by memoized path summaries")
		workers   = flag.Int("workers", 0, "frontier workers (0: one state per quantum, the paper's loop; >=1: epochs of several states stepped on that many goroutines, results independent of the count)")

		serveWorker = flag.String("serve-worker", "", "run as a dispatch worker on this address (unix:/path or host:port), executing attempt and frontier-shard units until interrupted")
		ckptOut     = flag.String("checkpoint-out", "", "write the end-of-run frontier to this .ssnap file (-workers 0 only)")
		resumePath  = flag.String("resume", "", "resume exploration from a .ssnap checkpoint instead of -app/-file")
		dispatchRun = flag.Bool("dispatch", false, "after a bounded local warmup, shard the remaining frontier across -worker-addrs (shards that fail to ship re-run locally)")
		workerAddrs = flag.String("worker-addrs", "", "comma-separated dispatch worker addresses for -dispatch")
		warmupSteps = flag.Int64("warmup-steps", 5000, "local instruction budget before sharding under -dispatch")
	)
	flag.Parse()

	if *serveWorker != "" {
		return runServeWorker(*serveWorker, *cacheDir, *lopts)
	}

	var prog *bytecode.Program
	var spec *symexec.InputSpec
	var resumeBlob []byte
	switch {
	case *resumePath != "":
		blob, err := symexec.ReadCheckpointFile(*resumePath)
		if err != nil {
			return err
		}
		resumeBlob = blob
		// Peek the program out of the checkpoint so the span, persistent
		// cache, and coverage report see the right binary; ResumeExecutor
		// re-decodes the full blob with the final options below.
		r := snapshot.NewReader(blob)
		if _, err := r.Uvarint(); err != nil {
			return err
		}
		if prog, err = snapshot.DecodeProgram(r); err != nil {
			return err
		}
	case *appName != "":
		app, err := apps.Get(*appName)
		if err != nil {
			return err
		}
		prog = app.Program()
		spec = app.Spec
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		prog = bytecode.MustCompile(*file, string(src))
		spec = &symexec.InputSpec{MaxStrLen: *maxStr}
	default:
		return fmt.Errorf("one of -app, -file, or -resume is required")
	}

	if *replay != "" {
		seed, err := interp.LoadInput(*replay)
		if err != nil {
			return err
		}
		// Copy the spec so the app registry's shared instance stays clean.
		seeded := *spec
		seeded.SeedInput = seed
		spec = &seeded
		fmt.Printf("seeding exploration with %s\n", *replay)
	}

	opts := symexec.DefaultOptions()
	opts.StopAtFirstVuln = !*all
	opts.Timeout = *timeout
	calls, err := core.Config{Scope: *scope, Summaries: *summaries}.CallStrategy(prog)
	if err != nil {
		return err
	}
	opts.Calls = calls
	opts.Workers = *workers
	if *maxStates > 0 {
		opts.MaxStates = *maxStates
	}
	if *maxSteps > 0 {
		opts.MaxSteps = *maxSteps
	}
	switch *schedName {
	case "bfs":
		opts.Sched = symexec.NewBFS()
	case "dfs":
		opts.Sched = symexec.NewDFS()
	case "random":
		opts.Sched = symexec.NewRandom(*seed)
	case "coverage":
		opts.Sched = symexec.NewCoverage()
	default:
		return fmt.Errorf("unknown scheduler %q", *schedName)
	}

	// SIGINT/SIGTERM stop exploration cooperatively; the partial result
	// (paths, coverage, any vulnerabilities found so far) is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rt, err := live.Init(*lopts)
	if err != nil {
		return err
	}
	defer func() {
		if err := rt.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "symexec: obs:", err)
		}
	}()
	defer rt.DumpOnPanic()
	if o := rt.Obs(); o != nil {
		ctx = rt.Context(ctx)
		var span *obs.Span
		ctx, span = obs.StartSpan(ctx, "symexec",
			obs.A("program", prog.Name), obs.A("sched", opts.Sched.Name()))
		defer span.End()
		if lopts.Metrics {
			defer func() { fmt.Print(o.Metrics.Format()) }()
		}
	}

	// A persistent cache dir gives this run a shared cache as the store's
	// in-memory face: prior verdicts are verified and seeded before the
	// run, fresh ones spill behind the solver's hot path.
	var session *persist.Session
	if *cacheDir != "" {
		shared := solver.NewSharedCache(0)
		opts.SharedCache = shared
		opts.OriginHashes = summary.HashProgram(prog)
		session, err = persist.Attach(persist.Config{
			Dir: *cacheDir, Program: prog, Shared: shared, Obs: rt.Obs(),
		})
		if err != nil {
			return err
		}
	}

	var ex *symexec.Executor
	var res *symexec.Result
	switch {
	case *resumePath != "":
		ex, err = symexec.ResumeExecutor(resumeBlob, opts)
		if err != nil {
			return err
		}
		res = ex.RunContext(ctx)
	case *dispatchRun:
		addrs := dispatch.ParseAddrs(*workerAddrs)
		ex, res, err = runDispatchPure(ctx, prog, spec, opts, addrs, *warmupSteps)
		if err != nil {
			return err
		}
	default:
		ex = symexec.New(prog, spec, opts)
		res = ex.RunContext(ctx)
	}
	if *ckptOut != "" {
		blob, err := ex.EncodeCheckpoint()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := symexec.WriteCheckpointFile(*ckptOut, blob); err != nil {
			return err
		}
		fmt.Printf("checkpoint: wrote %s (%d bytes)\n", *ckptOut, len(blob))
	}
	if session != nil {
		if err := session.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "symexec: solver cache:", err)
		}
		st := session.Stats()
		fmt.Printf("persist: loaded=%d warm-hits=%d spilled=%d rejected=%d invalidated=%d\n",
			st.Loaded, session.PersistHits(), st.Spilled, st.Rejected, st.Invalidated)
	}
	if res.Found() {
		rt.NoteFault()
	}
	fmt.Printf("scheduler=%s paths=%d states=%d forks=%d steps=%d solver-checks=%d elapsed=%v\n",
		opts.Sched.Name(), res.Paths, res.StatesCreated, res.Forks, res.Steps,
		res.SolverChecks, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("solver-cache: hits=%d misses=%d evictions=%d solver-time=%v\n",
		res.CacheHits, res.CacheMisses, res.CacheEvictions, res.SolverTime.Round(time.Microsecond))
	if *cov {
		fmt.Printf("coverage: %.1f%% of instructions\n", ex.TotalCoverage()*100)
		byFunc := ex.Coverage()
		names := make([]string, 0, len(byFunc))
		for name := range byFunc {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-24s %.1f%%\n", name, byFunc[name]*100)
		}
	}
	switch {
	case res.Exhausted:
		fmt.Println("status: FAILED (state budget exhausted — memory overrun)")
	case res.StepLimited:
		fmt.Println("status: FAILED (instruction budget exhausted)")
	case res.TimedOut:
		fmt.Println("status: FAILED (timed out)")
	case res.Cancelled:
		fmt.Println("status: interrupted (partial results)")
	default:
		fmt.Println("status: completed")
	}
	if len(res.Vulns) == 0 {
		fmt.Println("no vulnerabilities found")
		return nil
	}
	for i, v := range res.Vulns {
		fmt.Printf("vulnerability %d: %s in %s at %s\n", i+1, v.Kind, v.Func, v.Pos)
		fmt.Println("  path:")
		for _, loc := range v.Path {
			fmt.Printf("    %s\n", loc)
		}
		fmt.Printf("  constraints (%d):\n", len(v.Constraints))
		limit := len(v.Constraints)
		if limit > 12 {
			limit = 12
		}
		for _, c := range v.Constraints[:limit] {
			fmt.Printf("    %s\n", c.String(ex.Table))
		}
		if len(v.Constraints) > limit {
			fmt.Printf("    ... (%d more)\n", len(v.Constraints)-limit)
		}
		if v.Witness != nil {
			fmt.Println("  witness:")
			for k, val := range v.Witness.Ints {
				fmt.Printf("    int %s = %d\n", k, val)
			}
			for k, val := range v.Witness.Strs {
				fmt.Printf("    string %s = %s\n", k, trunc(val))
			}
			for k, val := range v.Witness.Env {
				fmt.Printf("    env %s = %s\n", k, trunc(val))
			}
			if len(v.Witness.Args) > 0 {
				fmt.Printf("    args =")
				for _, a := range v.Witness.Args {
					fmt.Printf(" %s", trunc(a))
				}
				fmt.Println()
			}
		}
	}
	return nil
}

// runServeWorker turns this process into a dispatch worker: it serves
// candidate-attempt and frontier-shard units on addr until interrupted.
// With -cache-dir the worker warms from (and spills to) the same
// persistent solver-cache store as the coordinator.
func runServeWorker(addr, cacheDir string, lopts live.Options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt, err := live.Init(lopts)
	if err != nil {
		return err
	}
	defer func() {
		if err := rt.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "symexec: obs:", err)
		}
	}()
	defer rt.DumpOnPanic()
	l, err := dispatch.Listen(addr)
	if err != nil {
		return err
	}
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	fmt.Printf("worker: serving dispatch units on %s\n", addr)
	err = dispatch.Serve(l, core.NewDispatchRunner(core.WorkerConfig{CacheDir: cacheDir, Obs: rt.Obs()}))
	if ctx.Err() != nil {
		return nil // interrupted: the closed listener is a clean shutdown
	}
	return err
}

// runDispatchPure distributes a pure-mode exploration: a bounded local
// warmup builds a frontier, EncodeFrontierShards splits it 1+len(addrs)
// ways, one shard runs locally while the rest ship to the workers as
// FrameStateUnit units, and the results merge in shard order. Every shard
// runs under the run's full step/state budget, so the merged totals equal
// the undivided run's (the shard-union invariant pinned in
// internal/symexec). A shard whose worker fails re-runs locally: workers
// cost speed, never detections. StopAtFirstVuln is forced off — shards
// explore independently, so the run behaves like -all.
func runDispatchPure(ctx context.Context, prog *bytecode.Program, spec *symexec.InputSpec, opts symexec.Options, addrs []string, warmup int64) (*symexec.Executor, *symexec.Result, error) {
	if opts.Workers > 0 || opts.Calls != nil {
		return nil, nil, fmt.Errorf("-dispatch requires the default pure engine (no -workers, -scope, -summaries)")
	}
	full := opts
	if full.MaxSteps == 0 {
		full.MaxSteps = symexec.DefaultMaxSteps
	}
	if full.MaxStates == 0 {
		full.MaxStates = symexec.DefaultMaxStates
	}
	full.StopAtFirstVuln = false
	warmOpts := full
	if warmup > 0 && warmup < full.MaxSteps {
		warmOpts.MaxSteps = warmup
	}
	ex := symexec.New(prog, spec, warmOpts)
	res := ex.RunContext(ctx)
	if !res.StepLimited || warmOpts.MaxSteps == full.MaxSteps || ctx.Err() != nil {
		// Finished, hit a real limit, or interrupted before the warmup
		// boundary: nothing left to distribute.
		return ex, res, nil
	}
	res.StepLimited = false // the warmup boundary is internal, not a verdict

	n := 1 + len(addrs)
	shards, err := ex.EncodeFrontierShards(n)
	if err != nil {
		return nil, nil, fmt.Errorf("shard frontier: %w", err)
	}
	units := make([]*symexec.StateUnit, n)
	for i, blob := range shards {
		units[i] = &symexec.StateUnit{MaxSteps: full.MaxSteps, MaxStates: full.MaxStates, Blob: blob}
	}
	results := make([]*symexec.StateResult, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			r, err := shipStateUnit(addr, units[i])
			if err != nil {
				fmt.Fprintf(os.Stderr, "symexec: worker %s failed (%v); running shard %d locally\n", addr, err, i)
				if r, err = symexec.RunStateUnit(ctx, units[i]); err != nil {
					fmt.Fprintf(os.Stderr, "symexec: shard %d: %v\n", i, err)
					return
				}
			}
			results[i] = r
		}(i, addrs[i-1])
	}
	if results[0], err = symexec.RunStateUnit(ctx, units[0]); err != nil {
		return nil, nil, err
	}
	wg.Wait()

	remote := 0
	for i, r := range results {
		if r == nil {
			continue
		}
		if i > 0 {
			remote++
		}
		res.Paths += r.Paths
		res.StatesCreated += r.StatesCreated
		res.Steps += r.Steps
		res.Forks += r.Forks
		res.SolverChecks += r.SolverChecks
		res.SolverSat += r.SolverSat
		res.SolverUnsat += r.SolverUnsat
		res.Exhausted = res.Exhausted || r.Exhausted
		res.StepLimited = res.StepLimited || r.StepLimited
		res.Vulns = append(res.Vulns, r.Vulns...)
	}
	fmt.Printf("dispatch: %d shards (%d local, %d remote-capable workers)\n", n, n-remote, len(addrs))
	return ex, res, nil
}

// shipStateUnit sends one frontier shard to a worker and decodes its
// result.
func shipStateUnit(addr string, u *symexec.StateUnit) (*symexec.StateResult, error) {
	c, err := dispatch.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	reply, err := c.Do(snapshot.FrameStateUnit, symexec.EncodeStateUnit(u), 0)
	if err != nil {
		return nil, err
	}
	return symexec.DecodeStateResult(reply)
}

func trunc(s string) string {
	if len(s) <= 40 {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%q... (%d bytes)", s[:24], len(s))
}
