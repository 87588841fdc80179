// Package bench regenerates every table and figure of the paper's
// evaluation (§VII) from this reproduction's own modules. Each experiment
// returns structured rows plus a paper-style text rendering; cmd/benchtab
// and the repository-level testing.B benchmarks drive them.
//
// Absolute times differ from the paper (the substrate is a bytecode
// interpreter on one host, not KLEE on a Xeon testbed); the comparisons
// that carry the paper's conclusions — who finds the vulnerability, who
// fails with state exhaustion, which module dominates, how counts relate —
// are the reproduced quantities.
package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Budgets holds the resource limits standing in for the paper's 8-hour
// KLEE timeout and its machine's memory. They are deliberately small: the
// modeled programs are smaller than the originals by a similar factor.
type Budgets struct {
	PureMaxStates int
	PureMaxSteps  int64
	PureTimeout   time.Duration

	// Guided is the core.Config every experiment that runs the guided
	// pipeline starts from, setting Spec itself. It carries the
	// per-candidate step and time budgets plus the flags benchtab binds
	// with core.BindFlags (Parallel, Workers, DisableSharedCache, Scope,
	// Summaries) and its -cache-dir. Parallel, DisableSharedCache and
	// Summaries (under a full-coverage Scope) change wall-clock time or
	// effort, never detections; the counters of Workers >= 1 runs do not
	// depend on the count. CacheDir is a root with one store subdirectory
	// per app, not a store. An experiment that predates a field keeps
	// ignoring it and resets it to the zero value.
	Guided core.Config
}

// DefaultBudgets returns the standard experiment budgets.
func DefaultBudgets() Budgets {
	return Budgets{
		PureMaxStates: 20_000,
		PureMaxSteps:  20_000_000,
		PureTimeout:   60 * time.Second,
		Guided: core.Config{
			PerCandidateMaxSteps: 20_000_000,
			PerCandidateTimeout:  30 * time.Second,
		},
	}
}

// DefaultSeed is the workload seed shared by the experiments.
const DefaultSeed = 1

// --- Table I ---

// Table1Row is one program's static statistics.
type Table1Row struct {
	Program string
	Stats   minic.ProgramStats
}

// Table1 computes program statistics for the four applications.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, app := range apps.All() {
		rows = append(rows, Table1Row{Program: app.Name, Stats: app.Stats()})
	}
	return rows
}

// FormatTable1 renders Table I.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("TABLE I: Program statistics\n")
	fmt.Fprintf(&sb, "%-10s %6s %9s %11s %6s %8s\n",
		"Program", "SLOC", "Ext.Call", "Inter.Call", "G.V.", "Params.")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %6d %9d %11d %6d %8d\n",
			r.Program, r.Stats.SLOC, r.Stats.ExternalCalls, r.Stats.InternalCalls,
			r.Stats.GlobalVars, r.Stats.Params)
	}
	return sb.String()
}

// --- Tables II / III (module breakdown at a sampling rate) ---

// ModuleRow is one benchmark's detour count and per-module time breakdown.
type ModuleRow struct {
	Program    string
	Detours    int
	StatTime   time.Duration
	SymTime    time.Duration
	Found      bool
	Candidates int
	LogBytes   int
}

// RunPipeline executes the full StatSym pipeline for one app at the given
// sampling rate and returns the report (shared by several experiments).
// Cancelling ctx aborts the guided search and surfaces the partial report's
// error state to the experiment driver. When an observability handle rides
// in ctx, the whole run — corpus collection included — is wrapped in one
// "pipeline" root span (core.RunJob reuses it rather than opening a
// second root), and the report carries the monitor phase's wall time.
func RunPipeline(ctx context.Context, app *apps.App, rate float64, seed int64, budgets Budgets) (*core.Report, error) {
	ctx, root := obs.StartSpan(ctx, "pipeline", obs.A("app", app.Name), obs.A("rate", rate))
	defer root.End()
	monStart := time.Now()
	corpus, err := workload.BuildCorpusCtx(ctx, app, workload.Options{SampleRate: rate, Seed: seed})
	if err != nil {
		return nil, err
	}
	monTime := time.Since(monStart)
	cfg := budgets.Guided
	cfg.Spec = app.Spec
	// A persistent store is single-program (its manifest pins the program
	// name), so a shared cache root gets one subdirectory per app.
	if cfg.CacheDir != "" {
		cfg.CacheDir = filepath.Join(cfg.CacheDir, app.Name)
	}
	rep, err := core.RunJob(ctx, core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, cfg)
	if rep != nil {
		rep.MonTime = monTime
	}
	return rep, err
}

// TableModule runs every app at the given sampling rate — Table II with
// rate=1.0, Table III with rate=0.3.
func TableModule(ctx context.Context, rate float64, seed int64, budgets Budgets) ([]ModuleRow, error) {
	var rows []ModuleRow
	for _, app := range apps.All() {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		rep, err := RunPipeline(ctx, app, rate, seed, budgets)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		rows = append(rows, ModuleRow{
			Program:    app.Name,
			Detours:    rep.Detours(),
			StatTime:   rep.StatTime,
			SymTime:    rep.SymTime,
			Found:      rep.Found(),
			Candidates: len(rep.PathRes.Candidates),
			LogBytes:   rep.LogBytes,
		})
	}
	return rows, nil
}

// FormatTableModule renders Table II/III.
func FormatTableModule(title string, rows []ModuleRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-10s %8s %14s %14s %7s %9s\n",
		"Benchmark", "detours", "stat-time", "symex-time", "found", "log-KB")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8d %14s %14s %7v %9d\n",
			r.Program, r.Detours, r.StatTime.Round(time.Millisecond),
			r.SymTime.Round(time.Millisecond), r.Found, r.LogBytes/1024)
	}
	return sb.String()
}

// --- Table IV (guided vs pure) ---

// Table4Row compares StatSym against pure symbolic execution for one app.
type Table4Row struct {
	Program string

	GuidedPaths int
	GuidedTime  time.Duration
	GuidedFound bool

	PurePaths  int
	PureTime   time.Duration
	PureFound  bool
	PureFailed bool // state/step/time budget exhausted without a find
}

// Table4 runs the comparison at 30% sampling (the paper's setting).
func Table4(ctx context.Context, seed int64, budgets Budgets) ([]Table4Row, error) {
	var rows []Table4Row
	for _, app := range apps.All() {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		rep, err := RunPipeline(ctx, app, 0.3, seed, budgets)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		row := Table4Row{
			Program:     app.Name,
			GuidedPaths: rep.TotalPaths,
			GuidedTime:  rep.StatTime + rep.SymTime,
			GuidedFound: rep.Found(),
		}
		pure := core.RunPureContext(ctx, app.Program(), app.Spec,
			budgets.PureMaxStates, budgets.PureMaxSteps, budgets.PureTimeout)
		row.PurePaths = pure.Paths
		row.PureTime = pure.Elapsed
		row.PureFound = pure.Found()
		row.PureFailed = !pure.Found() && (pure.Exhausted || pure.StepLimited || pure.TimedOut)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders Table IV.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("TABLE IV: StatSym vs pure symbolic execution (30% sampling)\n")
	fmt.Fprintf(&sb, "%-10s | %12s %12s | %12s %12s\n",
		"Benchmark", "SS #paths", "SS time", "pure #paths", "pure time")
	for _, r := range rows {
		ssTime := r.GuidedTime.Round(time.Millisecond).String()
		if !r.GuidedFound {
			ssTime = "NOT FOUND"
		}
		pureTime := r.PureTime.Round(time.Millisecond).String()
		if r.PureFailed {
			pureTime = "Failed"
		} else if !r.PureFound {
			pureTime = "no vuln"
		}
		fmt.Fprintf(&sb, "%-10s | %12d %12s | %12d %12s\n",
			r.Program, r.GuidedPaths, ssTime, r.PurePaths, pureTime)
	}
	return sb.String()
}

// --- Table V (top predicates, polymorph) ---

// Table5 returns the top-k ranked predicates for an app at 30% sampling.
func Table5(ctx context.Context, appName string, k int, seed int64) ([]string, error) {
	app, err := apps.Get(appName)
	if err != nil {
		return nil, err
	}
	rep, err := RunPipeline(ctx, app, 0.3, seed, DefaultBudgets())
	if err != nil {
		return nil, err
	}
	var out []string
	for i, p := range rep.Analysis.Top(k) {
		out = append(out, fmt.Sprintf("P%-2d %-50s @ %-32s score %.3f",
			i+1, p.String(), p.Loc, p.Score))
	}
	return out, nil
}

// --- Figure 7 (candidate path lengths) ---

// Fig7Row summarizes an app's candidate-path lengths.
type Fig7Row struct {
	Program  string
	NumPaths int
	MinLen   int
	AvgLen   float64
	MaxLen   int
}

// Figure7 computes candidate path length statistics at 30% sampling.
func Figure7(ctx context.Context, seed int64) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, app := range apps.All() {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		rep, err := RunPipeline(ctx, app, 0.3, seed, DefaultBudgets())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		row := Fig7Row{Program: app.Name, NumPaths: len(rep.PathRes.Candidates)}
		total := 0
		for i, cand := range rep.PathRes.Candidates {
			n := cand.Len()
			total += n
			if i == 0 || n < row.MinLen {
				row.MinLen = n
			}
			if n > row.MaxLen {
				row.MaxLen = n
			}
		}
		if row.NumPaths > 0 {
			row.AvgLen = float64(total) / float64(row.NumPaths)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure7 renders Fig. 7 as a table.
func FormatFigure7(rows []Fig7Row) string {
	var sb strings.Builder
	sb.WriteString("FIGURE 7: Candidate path lengths (30% sampling)\n")
	fmt.Fprintf(&sb, "%-10s %7s %7s %8s %7s\n", "Program", "#paths", "min", "avg", "max")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d %7d %8.1f %7d\n",
			r.Program, r.NumPaths, r.MinLen, r.AvgLen, r.MaxLen)
	}
	return sb.String()
}

// --- Figure 8 (instrumented locations and variables, polymorph) ---

// Figure8 lists an app's instrumentation locations and observable
// variables.
func Figure8(appName string) ([]string, []string, error) {
	app, err := apps.Get(appName)
	if err != nil {
		return nil, nil, err
	}
	prog := app.Program()
	var locs, vars []string
	seen := map[string]bool{}
	for _, fn := range prog.Funcs {
		if fn.Name == "$init" {
			continue
		}
		locs = append(locs,
			trace.Location{Func: fn.Name, Kind: trace.EventEnter}.String(),
			trace.Location{Func: fn.Name, Kind: trace.EventLeave}.String())
		for _, p := range fn.ParamNames {
			key := "FUNCPARAM " + p
			if !seen[key] {
				seen[key] = true
				vars = append(vars, key)
			}
		}
	}
	for _, g := range prog.Globals {
		vars = append(vars, "GLOBAL "+g.Name)
	}
	return locs, vars, nil
}

// --- Figure 9 (candidate paths, polymorph) ---

// Figure9 renders an app's ranked candidate paths at 30% sampling.
func Figure9(ctx context.Context, appName string, seed int64) ([]string, error) {
	app, err := apps.Get(appName)
	if err != nil {
		return nil, err
	}
	rep, err := RunPipeline(ctx, app, 0.3, seed, DefaultBudgets())
	if err != nil {
		return nil, err
	}
	var out []string
	for i, cand := range rep.PathRes.Candidates {
		out = append(out, fmt.Sprintf("candidate %d (avg score %.3f, %d detours): %s",
			i+1, cand.AvgScore, cand.Detours, cand.String()))
	}
	return out, nil
}

// --- Figure 10 (sensitivity to sampling rate) ---

// Fig10Row is one (app, rate) measurement.
type Fig10Row struct {
	Program  string
	Rate     float64
	StatTime time.Duration
	SymTime  time.Duration
	Found    bool
	Detours  int
	LogBytes int
}

// Figure10 sweeps sampling rates for the given apps (the paper uses
// polymorph and CTree, 20%–100%).
func Figure10(ctx context.Context, appNames []string, rates []float64, seed int64) ([]Fig10Row, error) {
	if len(rates) == 0 {
		rates = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	var rows []Fig10Row
	for _, name := range appNames {
		app, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		for _, rate := range rates {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			rep, err := RunPipeline(ctx, app, rate, seed, DefaultBudgets())
			if err != nil {
				return nil, fmt.Errorf("%s@%.0f%%: %w", name, rate*100, err)
			}
			rows = append(rows, Fig10Row{
				Program:  name,
				Rate:     rate,
				StatTime: rep.StatTime,
				SymTime:  rep.SymTime,
				Found:    rep.Found(),
				Detours:  rep.Detours(),
				LogBytes: rep.LogBytes,
			})
		}
	}
	return rows, nil
}

// FormatFigure10 renders the sensitivity sweep.
func FormatFigure10(rows []Fig10Row) string {
	var sb strings.Builder
	sb.WriteString("FIGURE 10: Sensitivity to sampling rate\n")
	fmt.Fprintf(&sb, "%-10s %6s %14s %14s %8s %7s %9s\n",
		"Program", "rate", "stat-time", "symex-time", "detours", "found", "log-KB")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %5.0f%% %14s %14s %8d %7v %9d\n",
			r.Program, r.Rate*100, r.StatTime.Round(time.Microsecond),
			r.SymTime.Round(time.Microsecond), r.Detours, r.Found, r.LogBytes/1024)
	}
	return sb.String()
}

// --- symexec helper reused by ablations ---

// pureWithScheduler runs unguided symbolic execution under a given
// scheduler.
func pureWithScheduler(ctx context.Context, app *apps.App, sched symexec.Scheduler, budgets Budgets) *symexec.Result {
	opts := symexec.DefaultOptions()
	opts.Sched = sched
	opts.MaxStates = budgets.PureMaxStates
	opts.MaxSteps = budgets.PureMaxSteps
	opts.Timeout = budgets.PureTimeout
	ex := symexec.New(app.Program(), app.Spec, opts)
	return ex.RunContext(ctx)
}
