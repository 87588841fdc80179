package monitor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/trace"
)

// collectSequential is the balanced collection loop as it ran before runs
// executed in parallel, without its observability: one run at a time, in
// index order. It is the reference collectBalanced must match at every
// GOMAXPROCS.
func collectSequential(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int, cfg Config, dst destination) error {
	fail := func(err error) error {
		if dst.discard != nil {
			if derr := dst.discard(); derr != nil {
				err = errors.Join(err, fmt.Errorf("monitor: discarding kept runs: %w", derr))
			}
		}
		return err
	}
	nc, nf := 0, 0
	limit := (wantCorrect + wantFaulty) * 100
	for i := 0; i < limit && (nc < wantCorrect || nf < wantFaulty); i++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		run, err := CollectRun(prog, gen(i), cfg, i)
		if err != nil {
			return fail(err)
		}
		if run.Faulty {
			if nf >= wantFaulty {
				continue
			}
			nf++
		} else {
			if nc >= wantCorrect {
				continue
			}
			nc++
		}
		run.ID = dst.firstID + nc + nf - 1
		if err := dst.keep(run); err != nil {
			return fail(err)
		}
	}
	if nc < wantCorrect || nf < wantFaulty {
		return fail(fmt.Errorf("monitor: generator yielded %d correct / %d faulty runs, want %d/%d",
			nc, nf, wantCorrect, wantFaulty))
	}
	if dst.commit != nil {
		if _, err := dst.commit(); err != nil {
			return fail(err)
		}
	}
	return nil
}

// oracleSrc is testSrc with a spin loop in front of the work: a large
// "spin" input runs into Config.MaxSteps without faulting.
const oracleSrc = `
global int calls = 0;
func spin(int k) int {
  int i = 0;
  while (i < k) { i = i + 1; }
  return i;
}
func work(int n, string tag) int {
  calls = calls + 1;
  buf b[8];
  int i = 0;
  while (i < n) {
    bufwrite(b, i, 'x');
    i = i + 1;
  }
  return n * 2;
}
func main() int {
  int n = input_int("n");
  spin(input_int("spin"));
  work(n, "t");
  return 0;
}`

// oracleCfg samples half the events and stops a run after 20,000 steps.
var oracleCfg = Config{SampleRate: 0.5, Seed: 3, MaxSteps: 20_000}

// benign and overflowing spin for up to ~2,700 steps first, so that runs
// drawn in index order finish out of it.
func benign(i int) *interp.Input {
	return &interp.Input{Ints: map[string]int64{"n": int64(i % 8), "spin": int64(i * 389 % 300)}}
}

func overflowing(i int) *interp.Input {
	return &interp.Input{Ints: map[string]int64{"n": int64(9 + i%7), "spin": int64(i * 211 % 300)}}
}

// looping runs into oracleCfg.MaxSteps.
func looping(int) *interp.Input {
	return &interp.Input{Ints: map[string]int64{"n": 1, "spin": 1_000_000}}
}

// The generator shapes: faults are rare, come in bursts, or alternate.
var generators = []struct {
	name string
	gen  func(i int) *interp.Input
}{
	{"rare", func(i int) *interp.Input {
		if i%17 == 5 {
			return overflowing(i)
		}
		return benign(i)
	}},
	{"bursty", func(i int) *interp.Input {
		if i%40 >= 25 {
			return overflowing(i)
		}
		return benign(i)
	}},
	{"alternating", func(i int) *interp.Input {
		if i%2 == 1 {
			return overflowing(i)
		}
		return benign(i)
	}},
}

// atWidths runs f at GOMAXPROCS 1, 2 and 4, restoring the setting after.
func atWidths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// loop is a collection loop: collectBalanced or collectSequential.
type loop func(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int, cfg Config, dst destination) error

// collected is one in-memory collection's outcome: the WriteTo encoding
// of the kept runs, or the error.
type collected struct {
	corpus []byte
	err    error
}

func collectWith(t *testing.T, ctx context.Context, l loop, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int) collected {
	t.Helper()
	prog := bytecode.MustCompile("oracle", oracleSrc)
	c := &trace.Corpus{Program: prog.Name}
	if err := l(ctx, prog, gen, wantCorrect, wantFaulty, oracleCfg, memoryDestination(c)); err != nil {
		return collected{err: err}
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return collected{corpus: buf.Bytes()}
}

// requireSame checks got against the reference: the same kept runs in the
// same order with the same IDs, or the same error.
func requireSame(t *testing.T, got, want collected) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		t.Fatalf("error = %v, want %v", got.err, want.err)
	}
	if !bytes.Equal(got.corpus, want.corpus) {
		t.Fatalf("kept runs differ from the sequential loop's (%d vs %d bytes)", len(got.corpus), len(want.corpus))
	}
}

// TestBalancedMatchesOracle compares collectBalanced with the sequential
// loop on every generator shape and at several quotas, including one the
// generator cannot fill.
func TestBalancedMatchesOracle(t *testing.T) {
	quotas := [][2]int{{10, 10}, {25, 5}, {3, 12}, {1, 1}}
	atWidths(t, func(t *testing.T) {
		for _, g := range generators {
			for _, q := range quotas {
				want := collectWith(t, context.Background(), collectSequential, g.gen, q[0], q[1])
				if want.err != nil {
					t.Fatalf("%s %v: reference failed: %v", g.name, q, want.err)
				}
				got := collectWith(t, context.Background(), collectBalanced, g.gen, q[0], q[1])
				requireSame(t, got, want)
			}
		}
		never := func(i int) *interp.Input { return benign(i) }
		want := collectWith(t, context.Background(), collectSequential, never, 2, 1)
		if want.err == nil {
			t.Fatal("reference filled a quota the generator cannot fill")
		}
		requireSame(t, collectWith(t, context.Background(), collectBalanced, never, 2, 1), want)
	})
}

// TestBalancedStepLimitBeforeFill: a run that exceeds Config.MaxSteps
// before the quotas fill ends the collection with the sequential loop's
// error.
func TestBalancedStepLimitBeforeFill(t *testing.T) {
	gen := func(i int) *interp.Input {
		switch {
		case i == 13:
			return looping(i)
		case i%2 == 1:
			return overflowing(i)
		}
		return benign(i)
	}
	atWidths(t, func(t *testing.T) {
		want := collectWith(t, context.Background(), collectSequential, gen, 10, 10)
		if !errors.Is(want.err, interp.ErrStepLimit) {
			t.Fatalf("reference error = %v, want the step limit", want.err)
		}
		got := collectWith(t, context.Background(), collectBalanced, gen, 10, 10)
		requireSame(t, got, want)
		if !errors.Is(got.err, interp.ErrStepLimit) {
			t.Fatalf("error %v does not wrap the step limit", got.err)
		}
	})
}

// fillIndex returns the index of the run at which the sequential loop
// fills both quotas of gen.
func fillIndex(t *testing.T, gen func(i int) *interp.Input, wantCorrect, wantFaulty int) int {
	t.Helper()
	last := -1
	tracked := func(i int) *interp.Input {
		last = i
		return gen(i)
	}
	if res := collectWith(t, context.Background(), collectSequential, tracked, wantCorrect, wantFaulty); res.err != nil {
		t.Fatal(res.err)
	}
	return last
}

// TestBalancedFailurePastFill: every run past the fill index runs into the
// step limit. The sequential loop never runs them, so the collection
// succeeds; the speculative runs a wider loop executes are discarded.
func TestBalancedFailurePastFill(t *testing.T) {
	base := generators[2].gen
	fill := fillIndex(t, base, 10, 10)
	gen := func(i int) *interp.Input {
		if i > fill {
			return looping(i)
		}
		return base(i)
	}
	atWidths(t, func(t *testing.T) {
		want := collectWith(t, context.Background(), collectSequential, gen, 10, 10)
		if want.err != nil {
			t.Fatalf("reference failed: %v", want.err)
		}
		requireSame(t, collectWith(t, context.Background(), collectBalanced, gen, 10, 10), want)
	})
}

// TestBalancedUnsafeGenerator: the generator keeps an unsynchronised
// counter and ignores its index, so it is correct only when it is called
// from one goroutine in index order (run the test under -race).
func TestBalancedUnsafeGenerator(t *testing.T) {
	counting := func() func(int) *interp.Input {
		drawn := 0
		return func(int) *interp.Input {
			drawn++
			if drawn%3 == 0 {
				return overflowing(drawn)
			}
			return benign(drawn)
		}
	}
	atWidths(t, func(t *testing.T) {
		want := collectWith(t, context.Background(), collectSequential, counting(), 20, 10)
		requireSame(t, collectWith(t, context.Background(), collectBalanced, counting(), 20, 10), want)
	})
}

// TestBalancedCancelPartWay: a cancel part-way through returns
// context.Canceled, as the sequential loop does, and leaves no goroutine
// of the collection running. A cancel while the run that fills the quotas
// is drawn comes too late, for both loops: the corpus is complete.
func TestBalancedCancelPartWay(t *testing.T) {
	gen := generators[2].gen
	fill := fillIndex(t, gen, 100, 100)
	cancellingAt := func(at int, cancel context.CancelFunc) func(int) *interp.Input {
		return func(i int) *interp.Input {
			if i == at {
				cancel()
			}
			return gen(i)
		}
	}
	atWidths(t, func(t *testing.T) {
		for _, at := range []int{30, fill} {
			ctx, cancel := context.WithCancel(context.Background())
			want := collectWith(t, ctx, collectSequential, cancellingAt(at, cancel), 100, 100)
			cancel()
			if cancelled := errors.Is(want.err, context.Canceled); cancelled != (at < fill) {
				t.Fatalf("cancel at %d: reference error = %v", at, want.err)
			}
			before := runtime.NumGoroutine()
			ctx, cancel = context.WithCancel(context.Background())
			got := collectWith(t, ctx, collectBalanced, cancellingAt(at, cancel), 100, 100)
			cancel()
			requireSame(t, got, want)
			// A goroutine that has finished its work may take a moment to exit.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("cancel at %d: %d goroutines running after the collection returned, %d before it", at, n, before)
			}
		}
	})
}

// TestBalancedStoreMatchesOracle: the store path appends the same runs in
// the same order as the sequential loop, and a failure past the fill index
// does not stop it from sealing them.
func TestBalancedStoreMatchesOracle(t *testing.T) {
	prog := bytecode.MustCompile("oracle", oracleSrc)
	base := generators[1].gen
	fill := fillIndex(t, base, 12, 12)
	gen := func(i int) *interp.Input {
		if i > fill {
			return looping(i)
		}
		return base(i)
	}
	materialize := func(t *testing.T, l loop) []byte {
		store, err := corpus.Create(t.TempDir(), prog.Name)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if err := l(context.Background(), prog, gen, 12, 12, oracleCfg, storeDestination(store, storeWriterOpts)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := store.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	atWidths(t, func(t *testing.T) {
		if !bytes.Equal(materialize(t, collectBalanced), materialize(t, collectSequential)) {
			t.Fatal("stored runs differ from the sequential loop's")
		}
	})
}

// TestBalancedCountsExecutedRuns: the registry's monitor.runs.executed
// equals the span's executed attribute, counts every run up to the fill
// index, and at most GOMAXPROCS-1 speculative runs past it.
func TestBalancedCountsExecutedRuns(t *testing.T) {
	prog := bytecode.MustCompile("oracle", oracleSrc)
	gen := generators[0].gen
	fill := fillIndex(t, gen, 10, 10)
	atWidths(t, func(t *testing.T) {
		rec := &obs.Recorder{}
		o := obs.New(rec)
		ctx := obs.NewContext(context.Background(), o)
		if _, err := BalancedCorpusCtx(ctx, prog, gen, 10, 10, oracleCfg); err != nil {
			t.Fatal(err)
		}
		executed := o.Metrics.Counter(obs.MetricMonitorRunsExecuted).Load()
		kept := o.Metrics.Counter(obs.MetricMonitorRuns).Load()
		var spanExecuted any
		for _, ev := range rec.Events() {
			if ev.Type == obs.EventSpanClose && ev.Name == "monitor" {
				spanExecuted = ev.Attrs["executed"]
			}
		}
		if spanExecuted != int(executed) {
			t.Errorf("span executed = %v, registry %s = %d", spanExecuted, obs.MetricMonitorRunsExecuted, executed)
		}
		if executed < kept {
			t.Errorf("%s = %d < %s = %d", obs.MetricMonitorRunsExecuted, executed, obs.MetricMonitorRuns, kept)
		}
		procs := runtime.GOMAXPROCS(0)
		if lo, hi := int64(fill+1), int64(fill+procs); executed < lo || executed > hi {
			t.Errorf("executed %d runs, want %d..%d (fill index %d, GOMAXPROCS %d)", executed, lo, hi, fill, procs)
		}
	})
}
