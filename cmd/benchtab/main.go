// Command benchtab regenerates the paper's evaluation tables and figures
// from this reproduction. Without flags it runs everything; -table and
// -figure select individual artifacts; -ablation runs the design-choice
// ablations from DESIGN.md. -baseline compares this machine's ablation
// rows against a recorded statsym.ledger/v1 ledger such as BENCH_gate.json
// (any other file is an error) and exits nonzero on regression;
// -ledger-out records the current rows for use as a future baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs/live"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// ablationTitles names the AblationRow-producing experiments; the corpus
// ablation has its own row type and is dispatched separately.
var ablationTitles = map[string]string{
	"scheduler":   "ABLATION: schedulers vs StatSym guidance",
	"guidance":    "ABLATION: guidance mechanisms (inter/intra)",
	"tau":         "ABLATION: hop threshold τ (thttpd)",
	"cache":       "ABLATION: solver query cache (polymorph, pure)",
	"frontier":    "ABLATION: frontier worker scaling (guided + pure)",
	"summaries":   "ABLATION: call interpretation vs memoized summaries",
	"solvercache": "ABLATION: persistent solver cache (cold / warm / warm-after-edit)",
	"dispatch":    "ABLATION: dispatch backend (sequential vs local vs 1/2/4 workers, min-of-3)",
}

// runAblation dispatches one AblationRow-producing ablation by name.
func runAblation(ctx context.Context, name string, seed int64, budgets bench.Budgets) ([]bench.AblationRow, error) {
	switch name {
	case "scheduler":
		return bench.AblationScheduler(ctx, seed, budgets)
	case "guidance":
		return bench.AblationGuidance(ctx, seed, budgets)
	case "tau":
		return bench.AblationTau(ctx, "thttpd", nil, seed, budgets)
	case "cache":
		return bench.AblationSolverCache(ctx, budgets)
	case "frontier":
		return bench.AblationFrontier(ctx, nil, seed, budgets)
	case "summaries":
		return bench.AblationSummaries(ctx, seed, budgets)
	case "solvercache":
		return bench.AblationSolverCachePersist(ctx, seed, budgets)
	case "dispatch":
		return bench.AblationDispatch(ctx, nil, seed, budgets)
	default:
		return nil, fmt.Errorf("unknown ablation %q", name)
	}
}

func run() error {
	budgets := bench.DefaultBudgets()
	core.BindFlags(flag.CommandLine, &budgets.Guided)
	lopts := live.BindFlags(flag.CommandLine, "benchtab", false)
	var (
		table     = flag.Int("table", 0, "regenerate one table (1-5); 0 = all")
		figure    = flag.Int("figure", 0, "regenerate one figure (7-10); 0 = all")
		ablation  = flag.String("ablation", "", "run an ablation: scheduler, guidance, tau, cache, frontier, corpus, summaries, solvercache, dispatch, all")
		corpusDir = flag.String("corpus-dir", "", "directory for the corpus ablation's on-disk artifacts (default: temp, discarded)")
		cacheDir  = flag.String("cache-dir", "", "persistent solver-cache root for guided pipeline runs and the solvercache ablation (default: temp, discarded)")
		seed      = flag.Int64("seed", bench.DefaultSeed, "workload seed")
		only      = flag.Bool("only", false, "run only the selected table/figure")
		asJSON    = flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
		baseline  = flag.String("baseline", "", "regression gate: re-run the ablations recorded in this ledger (statsym.ledger/v1, as -ledger-out writes), compare row by row, exit nonzero on regression")
		ledgerOut = flag.String("ledger-out", "", "write the ablation rows produced by this run as a ledger (future -baseline input)")
		tolSteps  = flag.Float64("tol-steps", bench.DefaultStepsTolerance, "allowed fractional step-count increase over the baseline (0.10 = +10%)")
	)
	flag.Parse()
	budgets.Guided.CacheDir = *cacheDir

	// SIGINT/SIGTERM cancel the in-flight experiment cooperatively; the
	// partial rows computed so far are discarded, but the process exits
	// cleanly instead of being killed mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rt, err := live.Init(*lopts)
	if err != nil {
		return err
	}
	defer func() {
		if err := rt.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab: obs:", err)
		}
	}()
	defer rt.DumpOnPanic()
	if o := rt.Obs(); o != nil {
		ctx = rt.Context(ctx)
		if lopts.Metrics {
			defer func() { fmt.Print(o.Metrics.Format()) }()
		}
	}

	// Ablation rows accumulated this run, for -ledger-out and -baseline.
	var ledgerRows []bench.LedgerRow
	writeLedger := func() error {
		if *ledgerOut == "" {
			return nil
		}
		if len(ledgerRows) == 0 {
			return fmt.Errorf("-ledger-out: no ablation rows produced (select an ablation)")
		}
		l := bench.Ledger{
			Date: time.Now().Format("2006-01-02"),
			Seed: *seed,
			Rows: ledgerRows,
		}
		if err := bench.WriteLedger(*ledgerOut, l); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchtab: ledger written to %s (%d rows)\n", *ledgerOut, len(ledgerRows))
		return nil
	}

	if *baseline != "" {
		base, err := bench.ReadBaseline(*baseline)
		if err != nil {
			return err
		}
		needed := bench.AblationsNeeded(base)
		if len(needed) == 0 {
			return fmt.Errorf("baseline %s: no rows map to a known ablation", *baseline)
		}
		fmt.Fprintf(os.Stderr, "benchtab: baseline %s needs ablations: %s\n", *baseline, strings.Join(needed, ", "))
		for _, name := range needed {
			rows, err := runAblation(ctx, name, *seed, budgets)
			if err != nil {
				return err
			}
			ledgerRows = append(ledgerRows, bench.LedgerFromRows(rows)...)
		}
		if err := writeLedger(); err != nil {
			return err
		}
		regs := bench.CompareLedger(base, ledgerRows, *tolSteps)
		fmt.Print(bench.FormatComparison(*baseline, len(base), len(ledgerRows), regs))
		if len(regs) > 0 {
			return fmt.Errorf("%d benchmark regression(s) against %s", len(regs), *baseline)
		}
		return nil
	}

	emit := func(name string, rows any, text string) {
		if *asJSON {
			blob, err := json.MarshalIndent(map[string]any{"artifact": name, "rows": rows}, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: json:", err)
				return
			}
			fmt.Println(string(blob))
			return
		}
		fmt.Println(text)
	}

	selected := func(t, f int) bool {
		if *ablation != "" && *table == 0 && *figure == 0 {
			return false
		}
		if !*only && *table == 0 && *figure == 0 {
			return true
		}
		return (*table != 0 && *table == t) || (*figure != 0 && *figure == f)
	}

	if selected(1, 0) {
		rows := bench.Table1()
		emit("table1", rows, bench.FormatTable1(rows))
	}
	if selected(2, 0) {
		rows, err := bench.TableModule(ctx, 1.0, *seed, budgets)
		if err != nil {
			return err
		}
		emit("table2", rows, bench.FormatTableModule("TABLE II: Module breakdown at 100% sampling", rows))
	}
	if selected(3, 0) {
		rows, err := bench.TableModule(ctx, 0.3, *seed, budgets)
		if err != nil {
			return err
		}
		emit("table3", rows, bench.FormatTableModule("TABLE III: Module breakdown at 30% sampling", rows))
	}
	if selected(4, 0) {
		rows, err := bench.Table4(ctx, *seed, budgets)
		if err != nil {
			return err
		}
		emit("table4", rows, bench.FormatTable4(rows))
	}
	if selected(5, 0) {
		lines, err := bench.Table5(ctx, "polymorph", 10, *seed)
		if err != nil {
			return err
		}
		fmt.Println("TABLE V: Top 10 predicates for polymorph (30% sampling)")
		for _, l := range lines {
			fmt.Println("  " + l)
		}
		fmt.Println()
	}
	if selected(0, 7) {
		rows, err := bench.Figure7(ctx, *seed)
		if err != nil {
			return err
		}
		emit("figure7", rows, bench.FormatFigure7(rows))
	}
	if selected(0, 8) {
		locs, vars, err := bench.Figure8("polymorph")
		if err != nil {
			return err
		}
		fmt.Println("FIGURE 8: Instrumented locations and variables in polymorph")
		for i, l := range locs {
			fmt.Printf("  L%-3d %s\n", i+1, l)
		}
		fmt.Println("  variables: " + strings.Join(vars, ", "))
		fmt.Println()
	}
	if selected(0, 9) {
		lines, err := bench.Figure9(ctx, "polymorph", *seed)
		if err != nil {
			return err
		}
		fmt.Println("FIGURE 9: Candidate paths for polymorph (30% sampling)")
		for _, l := range lines {
			fmt.Println("  " + l)
		}
		fmt.Println()
	}
	if selected(0, 10) {
		rows, err := bench.Figure10(ctx, []string{"polymorph", "ctree"}, nil, *seed)
		if err != nil {
			return err
		}
		emit("figure10", rows, bench.FormatFigure10(rows))
	}

	doAblation := func(name string) error {
		rows, err := runAblation(ctx, name, *seed, budgets)
		if err != nil {
			return err
		}
		ledgerRows = append(ledgerRows, bench.LedgerFromRows(rows)...)
		emit("ablation-"+name, rows, bench.FormatAblation(ablationTitles[name], rows))
		return nil
	}
	doCorpus := func() error {
		crows, err := bench.AblationCorpusStore(ctx, *corpusDir, *seed)
		if err != nil {
			return err
		}
		emit("ablation-corpus", crows, bench.FormatCorpusAblation("ABLATION: corpus storage backends (JSON blob vs segmented store)", crows))
		return nil
	}
	switch *ablation {
	case "":
	case "corpus":
		if err := doCorpus(); err != nil {
			return err
		}
	case "all":
		for _, name := range []string{"scheduler", "guidance", "tau", "cache", "frontier"} {
			if err := doAblation(name); err != nil {
				return err
			}
		}
		if err := doCorpus(); err != nil {
			return err
		}
		if err := doAblation("summaries"); err != nil {
			return err
		}
		if err := doAblation("solvercache"); err != nil {
			return err
		}
		if err := doAblation("dispatch"); err != nil {
			return err
		}
	default:
		if _, ok := ablationTitles[*ablation]; !ok {
			return fmt.Errorf("unknown ablation %q", *ablation)
		}
		if err := doAblation(*ablation); err != nil {
			return err
		}
	}
	return writeLedger()
}
