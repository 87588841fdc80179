// External test package: these tests drive the executor through the real
// evaluation apps, and the apps registry itself imports symexec, so they
// cannot live in the internal test package without an import cycle.
package symexec_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// TestRunContextAlreadyCancelled: an executor handed a dead context must
// stop before exploring anything and report Cancelled, not TimedOut.
func TestRunContextAlreadyCancelled(t *testing.T) {
	app, err := apps.Get("thttpd")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := symexec.New(app.Program(), app.Spec, symexec.DefaultOptions())
	res := ex.RunContext(ctx)
	if !res.Cancelled {
		t.Errorf("Cancelled not set: %+v", res)
	}
	if res.TimedOut {
		t.Errorf("cancellation misreported as timeout: %+v", res)
	}
	if res.Found() {
		t.Errorf("found a vulnerability without running: %+v", res)
	}
	if res.Paths != 0 {
		t.Errorf("explored %d paths under a dead context", res.Paths)
	}
}

// TestRunContextMidRunCancel cancels from inside the guidance hook after a
// fixed number of location crossings and checks the partial result is
// internally consistent: Cancelled set, counters monotone and bounded by
// the work actually done, and no competing stop cause reported.
func TestRunContextMidRunCancel(t *testing.T) {
	app, err := apps.Get("thttpd")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fires := 0
	opts := symexec.DefaultOptions()
	opts.Sched = symexec.NewBFS()
	opts.Hook = func(ex *symexec.Executor, st *symexec.State, loc trace.Location, view *symexec.VarView) symexec.HookDecision {
		fires++
		if fires == 25 {
			cancel()
		}
		return symexec.HookContinue
	}
	ex := symexec.New(app.Program(), app.Spec, opts)
	res := ex.RunContext(ctx)
	if !res.Cancelled {
		t.Fatalf("Cancelled not set after mid-run cancel: %+v", res)
	}
	if res.TimedOut || res.Exhausted || res.StepLimited {
		t.Errorf("cancellation reported alongside a budget stop: %+v", res)
	}
	if res.Steps <= 0 {
		t.Errorf("no steps recorded before the cancel: %+v", res)
	}
	if res.StatesCreated <= 0 || res.MaxLive <= 0 {
		t.Errorf("state counters empty: %+v", res)
	}
	if res.Paths < 0 || res.Paths > res.StatesCreated {
		t.Errorf("paths %d inconsistent with %d states created", res.Paths, res.StatesCreated)
	}
	if res.Elapsed <= 0 {
		t.Errorf("elapsed not measured")
	}
	// Cancellation is observed at the next quantum boundary: the run must
	// not have continued far beyond the hook that pulled the trigger.
	if fires > 25+symexec.BatchSize {
		t.Errorf("hook fired %d times after cancel at 25", fires-25)
	}
}

// TestRunContextTimeoutIsNotCancel: an expired Options.Timeout must keep
// reporting TimedOut (the pre-context behavior), never Cancelled.
func TestRunContextTimeoutIsNotCancel(t *testing.T) {
	app, err := apps.Get("thttpd")
	if err != nil {
		t.Fatal(err)
	}
	opts := symexec.DefaultOptions()
	opts.Timeout = time.Nanosecond
	ex := symexec.New(app.Program(), app.Spec, opts)
	res := ex.RunContext(context.Background())
	if !res.TimedOut {
		t.Errorf("TimedOut not set: %+v", res)
	}
	if res.Cancelled {
		t.Errorf("timeout misreported as cancellation: %+v", res)
	}
}

// TestRunContextNilContext: a nil context behaves like Background (the
// compatibility path used by Run).
func TestRunContextNilContext(t *testing.T) {
	app, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	opts := symexec.DefaultOptions()
	opts.MaxSteps = 50_000
	ex := symexec.New(app.Program(), app.Spec, opts)
	res := ex.RunContext(nil) //nolint:staticcheck // deliberate: nil must be tolerated
	if res.Cancelled {
		t.Errorf("nil context reported cancellation: %+v", res)
	}
}
