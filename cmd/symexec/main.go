// Command symexec runs pure (unguided) symbolic execution — the KLEE
// baseline — on one of the evaluation applications or an arbitrary MiniC
// source file, with a selectable state scheduler.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
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
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(usageError)):
		os.Exit(2) // the flag set has printed the error and the usage
	default:
		fmt.Fprintln(os.Stderr, "symexec:", err)
		os.Exit(1)
	}
}

// usageError is a command-line error that the flag set has already
// reported on stderr, together with the usage text.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// run is the whole command: it parses args on its own flag set, prints
// results to stdout and diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("symexec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lopts := live.BindFlags(fs, "symexec", false)
	var (
		appName   = fs.String("app", "", "app: polymorph, ctree, thttpd, grep, msgtool, billing")
		file      = fs.String("file", "", "MiniC source file to analyze instead of -app")
		schedName = fs.String("sched", "bfs", "scheduler: bfs, dfs, random, coverage")
		seed      = fs.Int64("seed", 1, "seed for the random scheduler")
		maxStates = fs.Int("max-states", 0, "live-state budget (0: default)")
		maxSteps  = fs.Int64("max-steps", 0, "instruction budget (0: default)")
		timeout   = fs.Duration("timeout", 60*time.Second, "wall-clock bound")
		maxStr    = fs.Int64("max-str", 0, "symbolic string length bound for -file runs (0: default)")
		all       = fs.Bool("all", false, "keep searching after the first vulnerability")
		replay    = fs.String("replay", "", "seed exploration with a witness input (JSON, from statsym -witness-out)")
		cov       = fs.Bool("cov", false, "report instruction coverage after the run")
		cacheDir  = fs.String("cache-dir", "", "persist solver-cache verdicts across runs in this directory (verified on load; wall-clock only)")
		scope     = fs.String("scope", "", "interpretation scope policy: \"\" or \"all\" interprets everything; \"all,-f,-g\" havocs f and g; \"f,g\" interprets exactly that list plus main")
		summaries = fs.Bool("summaries", false, "replace summarizable in-scope calls by memoized path summaries")
		workers   = fs.Int("workers", 0, "frontier workers (0: one state per quantum, the paper's loop; >=1: epochs of several states stepped on that many goroutines, results independent of the count)")

		serveWorker = fs.String("serve-worker", "", "run as a dispatch worker on this address (unix:/path or host:port), executing the candidate attempts a statsym -dispatch coordinator ships until interrupted")
		ckptOut     = fs.String("checkpoint-out", "", "write the end-of-run frontier to this .ssnap file (-workers 0, no -scope or -summaries)")
		resumePath  = fs.String("resume", "", "resume exploration from a .ssnap checkpoint instead of -app/-file")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	if *serveWorker != "" {
		return runServeWorker(*serveWorker, *cacheDir, *lopts, stdout, stderr)
	}

	var prog *bytecode.Program
	var spec *symexec.InputSpec
	var resumeBlob []byte
	switch {
	case *resumePath != "":
		// A checkpoint carries its own program and input spec.
		if *appName != "" || *file != "" || *replay != "" {
			return fmt.Errorf("-resume takes the program and inputs from the checkpoint; drop -app, -file and -replay")
		}
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
		fmt.Fprintf(stdout, "seeding exploration with %s\n", *replay)
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
	// A persistent cache dir gives this run a shared cache as the store's
	// in-memory face: prior verdicts are verified and seeded before the
	// run, fresh ones spill behind the solver's hot path.
	if *cacheDir != "" {
		opts.SharedCache = solver.NewSharedCache(0)
		opts.OriginHashes = summary.HashProgram(prog)
	}

	var ex *symexec.Executor
	if resumeBlob != nil {
		if ex, err = symexec.ResumeExecutor(resumeBlob, opts); err != nil {
			return err
		}
	} else {
		ex = symexec.New(prog, spec, opts)
	}
	// Refuse a capture the checkpoint format cannot hold before exploring.
	if *ckptOut != "" {
		if err := ex.Checkpointable(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
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
			fmt.Fprintln(stderr, "symexec: obs:", err)
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
			defer func() { fmt.Fprint(stdout, o.Metrics.Format()) }()
		}
	}

	var session *persist.Session
	if *cacheDir != "" {
		session, err = persist.Attach(persist.Config{
			Dir: *cacheDir, Program: prog, Shared: opts.SharedCache, Obs: rt.Obs(),
		})
		if err != nil {
			return err
		}
	}

	res := ex.RunContext(ctx)
	if *ckptOut != "" {
		blob, err := ex.EncodeCheckpoint()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := symexec.WriteCheckpointFile(*ckptOut, blob); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint: wrote %s (%d bytes)\n", *ckptOut, len(blob))
	}
	if session != nil {
		if err := session.Close(); err != nil {
			fmt.Fprintln(stderr, "symexec: solver cache:", err)
		}
		st := session.Stats()
		fmt.Fprintf(stdout, "persist: loaded=%d warm-hits=%d spilled=%d rejected=%d invalidated=%d\n",
			st.Loaded, session.PersistHits(), st.Spilled, st.Rejected, st.Invalidated)
	}
	if res.Found() {
		rt.NoteFault()
	}
	fmt.Fprintf(stdout, "scheduler=%s paths=%d states=%d forks=%d steps=%d solver-checks=%d elapsed=%v\n",
		opts.Sched.Name(), res.Paths, res.StatesCreated, res.Forks, res.Steps,
		res.SolverChecks, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "solver-cache: hits=%d reused=%d misses=%d evictions=%d solver-time=%v\n",
		res.CacheHits, res.CompReused, res.CacheMisses, res.CacheEvictions, res.SolverTime.Round(time.Microsecond))
	if *cov {
		fmt.Fprintf(stdout, "coverage: %.1f%% of instructions\n", ex.TotalCoverage()*100)
		byFunc := ex.Coverage()
		names := make([]string, 0, len(byFunc))
		for name := range byFunc {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %-24s %.1f%%\n", name, byFunc[name]*100)
		}
	}
	switch {
	case res.Exhausted:
		fmt.Fprintln(stdout, "status: FAILED (state budget exhausted — memory overrun)")
	case res.StepLimited:
		fmt.Fprintln(stdout, "status: FAILED (instruction budget exhausted)")
	case res.TimedOut:
		fmt.Fprintln(stdout, "status: FAILED (timed out)")
	case res.Cancelled:
		fmt.Fprintln(stdout, "status: interrupted (partial results)")
	default:
		fmt.Fprintln(stdout, "status: completed")
	}
	if len(res.Vulns) == 0 {
		fmt.Fprintln(stdout, "no vulnerabilities found")
		return nil
	}
	for i, v := range res.Vulns {
		fmt.Fprintf(stdout, "vulnerability %d: %s in %s at %s\n", i+1, v.Kind, v.Func, v.Pos)
		fmt.Fprintln(stdout, "  path:")
		for _, loc := range v.Path {
			fmt.Fprintf(stdout, "    %s\n", loc)
		}
		fmt.Fprintf(stdout, "  constraints (%d):\n", len(v.Constraints))
		limit := len(v.Constraints)
		if limit > 12 {
			limit = 12
		}
		for _, c := range v.Constraints[:limit] {
			fmt.Fprintf(stdout, "    %s\n", c.String(ex.Table))
		}
		if len(v.Constraints) > limit {
			fmt.Fprintf(stdout, "    ... (%d more)\n", len(v.Constraints)-limit)
		}
		if v.Witness != nil {
			fmt.Fprintln(stdout, "  witness:")
			for _, l := range v.Witness.Lines(trunc) {
				fmt.Fprintf(stdout, "    %s\n", l)
			}
		}
	}
	return nil
}

// runServeWorker turns this process into a dispatch worker: it serves
// candidate-attempt units on addr until interrupted. With -cache-dir the
// worker warms from (and spills to) the same persistent solver-cache
// store as the coordinator.
func runServeWorker(addr, cacheDir string, lopts live.Options, stdout, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt, err := live.Init(lopts)
	if err != nil {
		return err
	}
	defer func() {
		if err := rt.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(stderr, "symexec: obs:", err)
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
	fmt.Fprintf(stdout, "worker: serving dispatch units on %s\n", addr)
	err = dispatch.Serve(l, core.NewDispatchRunner(core.WorkerConfig{CacheDir: cacheDir, Obs: rt.Obs()}))
	if ctx.Err() != nil {
		return nil // interrupted: the closed listener is a clean shutdown
	}
	return err
}

func trunc(s string) string {
	if len(s) <= 40 {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%q... (%d bytes)", s[:24], len(s))
}
