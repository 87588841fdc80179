package symexec_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// hopHook is a guidance-shaped location hook with no candidate path: every
// function entry off main counts as a diverted hop, and a state past tau
// hops is suspended. Revived states run unguided. It exercises suspension,
// the suspended pool, and revival without depending on the statistics
// front-end.
func hopHook(tau int) symexec.LocationHook {
	return func(_ *symexec.Executor, st *symexec.State, loc trace.Location, _ *symexec.VarView) symexec.HookDecision {
		if st.Revived || loc.Kind != trace.EventEnter || loc.Func == "main" {
			return symexec.HookContinue
		}
		st.Diverted++
		if st.Diverted > tau {
			return symexec.HookSuspend
		}
		return symexec.HookContinue
	}
}

// TestEngineMatchesOracle pins the default engine (a one-slot epoch, the
// Workers=0 configuration) to the paper's sequential loop, which survives
// only as the test oracle: every Result field except wall-clock time and
// the epoch count, every vulnerability (site, path, constraints, model,
// witness), the variable table, the coverage map and the leftover frontier
// must agree.
func TestEngineMatchesOracle(t *testing.T) {
	type engineCase struct {
		name  string
		app   string
		tweak func(*symexec.Options)
	}
	var cases []engineCase
	for _, app := range append(apps.All(), apps.Extras()...) {
		cases = append(cases, engineCase{"bfs/" + app.Name, app.Name, nil})
	}
	cases = append(cases,
		engineCase{"dfs", "polymorph", func(o *symexec.Options) { o.Sched = symexec.NewDFS() }},
		engineCase{"random-seed-1", "ctree", func(o *symexec.Options) { o.Sched = symexec.NewRandom(1) }},
		engineCase{"coverage", "thttpd", func(o *symexec.Options) { o.Sched = symexec.NewCoverage() }},
		engineCase{"max-states", "ctree", func(o *symexec.Options) { o.MaxStates = 300 }},
		// 3001 is not a multiple of the 64-instruction quantum, so the
		// budget runs out mid-quantum.
		engineCase{"max-steps-mid-quantum", "ctree", func(o *symexec.Options) { o.MaxSteps = 3001 }},
		engineCase{"all-vulns", "billing", func(o *symexec.Options) { o.StopAtFirstVuln = false }},
		engineCase{"all-vulns-dfs", "msgtool", func(o *symexec.Options) {
			o.StopAtFirstVuln = false
			o.Sched = symexec.NewDFS()
		}},
		engineCase{"suspending-hook", "thttpd", func(o *symexec.Options) { o.Hook = hopHook(2) }},
		engineCase{"suspending-hook-tau0", "polymorph", func(o *symexec.Options) { o.Hook = hopHook(0) }},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app, err := apps.Get(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			prog := app.Program()
			newEx := func() *symexec.Executor {
				opts := symexec.DefaultOptions()
				opts.MaxStates = 2_000
				opts.MaxSteps = 400_000
				if tc.tweak != nil {
					tc.tweak(&opts)
				}
				return symexec.New(prog, app.Spec, opts)
			}
			eng, ref := newEx(), newEx()
			got := *eng.RunContext(context.Background())
			want := *symexec.RunOracle(context.Background(), ref)
			if got.Epochs == 0 {
				t.Fatal("engine reported no epochs")
			}
			for _, r := range []*symexec.Result{&got, &want} {
				r.Elapsed, r.SolverTime, r.Epochs = 0, 0, 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("result diverged from the oracle:\n got  %+v\n want %+v", got, want)
			}
			if g, w := eng.Table.Export(), ref.Table.Export(); !reflect.DeepEqual(g, w) {
				t.Errorf("variable tables diverged: %d vs %d variables", len(g), len(w))
			}
			if g, w := eng.Coverage(), ref.Coverage(); !reflect.DeepEqual(g, w) {
				t.Errorf("coverage diverged:\n got  %v\n want %v", g, w)
			}
			if g, w := eng.Pending(), ref.Pending(); g != w {
				t.Errorf("frontier left %d states, oracle %d", g, w)
			}
		})
	}
}

// TestEngineAllocsMatchOracle: a one-state epoch allocates nothing per
// epoch, so the engine's allocations exceed the sequential loop's by the
// loop's fixed setup only, not by the number of quanta (this program runs
// about two hundred).
func TestEngineAllocsMatchOracle(t *testing.T) {
	prog := bytecode.MustCompile("conc", `
func main() int {
  int s = 0;
  for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
  return s;
}`)
	engine := testing.AllocsPerRun(5, func() {
		symexec.New(prog, nil, symexec.DefaultOptions()).Run()
	})
	oracle := testing.AllocsPerRun(5, func() {
		symexec.RunOracle(context.Background(), symexec.New(prog, nil, symexec.DefaultOptions()))
	})
	if engine > oracle+16 {
		t.Errorf("engine allocates %.0f per run, the sequential loop %.0f", engine, oracle)
	}
}
