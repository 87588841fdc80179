package monitor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Balanced corpus collection. One loop generates runs until the correct
// and faulty quotas fill (the paper samples one hundred of each, §VII-A);
// the two entry points differ only in where a kept run goes — an
// in-memory corpus, or a segmented on-disk store that never holds the
// corpus in memory. Runs are kept in the same order with the same IDs
// either way (renumbered from zero, or from the store's current run count),
// so downstream analysis is identical.
//
// The loop executes up to runtime.GOMAXPROCS(0) runs at once and keeps
// exactly what running them one at a time would keep. One goroutine draws
// the inputs from gen in index order (generators need not be safe for
// concurrent use), every run samples with its own seed (CollectRun), and
// the results are consumed strictly in index order: the quota checks, the
// kept runs and their IDs, and the error returned all match the
// sequential loop's. A run drawn past the index at which both quotas fill
// is speculative and discarded. At most GOMAXPROCS runs are in flight, so
// the width-1 case is the sequential loop itself.
//
// The loop is also the observability entry point: it opens a "monitor"
// span under whatever parent rides in ctx, folds run and record counts
// into the metrics registry, emits periodic progress snapshots (it can run
// up to 100× the requested count when faults are rare, so it is the long
// pole worth watching live), and checks ctx before it draws each run, so a
// caller cancellation stops collection once the runs in flight finish.
// Unlike the pipeline (which returns a partial report), an interrupted
// collection returns ctx.Err() and keeps nothing: a truncated corpus
// would silently skew the statistical analysis downstream.

// BalancedCorpusCtx collects logs until it has wantCorrect correct and
// wantFaulty faulty runs, drawing inputs from gen, and returns them as an
// in-memory corpus. It returns an error when the generator cannot produce
// the requested mix within 100× the requested run count.
func BalancedCorpusCtx(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int, cfg Config) (*trace.Corpus, error) {
	c := &trace.Corpus{Program: prog.Name}
	if err := collectBalanced(ctx, prog, gen, wantCorrect, wantFaulty, cfg, memoryDestination(c)); err != nil {
		return nil, err
	}
	return c, nil
}

// BalancedCorpusStoreCtx is BalancedCorpusCtx appending the kept runs to a
// store. Peak memory is the runs in flight (at most GOMAXPROCS) plus the
// writer's block buffer. The runs become visible only once both quotas
// fill: on cancellation, a collection error, or an exhausted generator
// every run appended so far is discarded, so the store holds exactly what
// it held before the call.
func BalancedCorpusStoreCtx(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int, cfg Config, store *corpus.Store, wopts corpus.Options) error {
	return collectBalanced(ctx, prog, gen, wantCorrect, wantFaulty, cfg, storeDestination(store, wopts))
}

// memoryDestination appends the kept runs to c.
func memoryDestination(c *trace.Corpus) destination {
	return destination{
		keep: func(run *trace.Run) error {
			c.Runs = append(c.Runs, *run)
			return nil
		},
	}
}

// storeDestination appends the kept runs to a new writer on store.
func storeDestination(store *corpus.Store, wopts corpus.Options) destination {
	w := store.NewWriter(wopts)
	return destination{
		attrs:   []obs.Attr{obs.A("store", store.Dir())},
		firstID: store.TotalRuns(),
		keep:    w.Append,
		commit: func() ([]obs.Attr, error) {
			if err := w.Close(); err != nil {
				return nil, err
			}
			return []obs.Attr{obs.A("sealed_bytes", w.Sealed().Bytes)}, nil
		},
		discard: w.Abort,
	}
}

// destination is where a balanced collection puts the runs it keeps.
type destination struct {
	attrs   []obs.Attr // extra "monitor" span attributes
	firstID int        // ID of the first kept run
	keep    func(run *trace.Run) error
	// commit, when set, makes the kept runs durable once the quotas fill;
	// its attributes close the span. discard, when set, drops every kept
	// run on any failure.
	commit  func() ([]obs.Attr, error)
	discard func() error
}

// collectBalanced is the balanced collection loop.
func collectBalanced(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int, cfg Config, dst destination) error {
	attrs := append([]obs.Attr{obs.A("want_correct", wantCorrect), obs.A("want_faulty", wantFaulty)}, dst.attrs...)
	_, sp := obs.StartSpan(ctx, "monitor", attrs...)
	limit := (wantCorrect + wantFaulty) * 100
	runs := startRuns(ctx, prog, gen, cfg, limit, runtime.GOMAXPROCS(0))
	kept, records, errAttr, err := keepBalanced(ctx, sp, runs, limit, wantCorrect, wantFaulty, dst)
	executed := runs.stop()
	noteExecuted(ctx, executed)
	end := []obs.Attr{obs.A("runs", kept), obs.A("records", records), obs.A("executed", executed)}
	if err == nil && dst.commit != nil {
		var extra []obs.Attr
		if extra, err = dst.commit(); err != nil {
			errAttr = obs.A("error", err.Error())
		}
		end = append(end, extra...)
	}
	if err != nil {
		if dst.discard != nil {
			if derr := dst.discard(); derr != nil {
				err = errors.Join(err, fmt.Errorf("monitor: discarding kept runs: %w", derr))
			}
		}
		sp.End(errAttr, obs.A("executed", executed))
		return err
	}
	noteRuns(ctx, kept, records)
	sp.End(end...)
	return nil
}

// keepBalanced consumes runs in index order until both quotas fill,
// handing each kept run to dst. It returns the kept run and record counts,
// or the error that ends the collection and its span attribute.
func keepBalanced(ctx context.Context, sp *obs.Span, runs *runPipeline, limit, wantCorrect, wantFaulty int,
	dst destination) (kept, records int, errAttr obs.Attr, err error) {
	o := obs.FromContext(ctx)
	lastSnap := time.Now()
	nc, nf := 0, 0
	for i := 0; i < limit && (nc < wantCorrect || nf < wantFaulty); i++ {
		r := runs.next()
		if r.cancelled {
			return 0, 0, obs.A("cancelled", true), r.err
		}
		if r.err != nil {
			return 0, 0, obs.A("error", r.err.Error()), r.err
		}
		if o != nil && o.Interval > 0 && time.Since(lastSnap) >= o.Interval {
			lastSnap = time.Now()
			o.Progress(sp,
				obs.A("generated", i+1),
				obs.A("correct", nc), obs.A("faulty", nf))
		}
		run := r.run
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
		records += len(run.Records)
		run.ID = dst.firstID + nc + nf - 1
		if err := dst.keep(run); err != nil {
			return 0, 0, obs.A("error", err.Error()), err
		}
	}
	if nc < wantCorrect || nf < wantFaulty {
		return 0, 0, obs.A("error", "generator exhausted"), fmt.Errorf(
			"monitor: generator yielded %d correct / %d faulty runs, want %d/%d", nc, nf, wantCorrect, wantFaulty)
	}
	return nc + nf, records, obs.Attr{}, nil
}

// noteRuns folds collection counts into the registry, if one is attached.
func noteRuns(ctx context.Context, runs, records int) {
	o := obs.FromContext(ctx)
	if o == nil {
		return
	}
	o.Metrics.Counter(obs.MetricMonitorRuns).Add(int64(runs))
	o.Metrics.Counter(obs.MetricMonitorRecords).Add(int64(records))
}

// noteExecuted folds the number of runs the VM executed, kept or not,
// into the registry, if one is attached.
func noteExecuted(ctx context.Context, executed int) {
	if o := obs.FromContext(ctx); o != nil {
		o.Metrics.Counter(obs.MetricMonitorRunsExecuted).Add(int64(executed))
	}
}

// runResult is one run's outcome, or the cancellation found before it
// was drawn.
type runResult struct {
	run       *trace.Run
	err       error
	cancelled bool
}

// runPipeline executes runs ahead of the collection loop. A drawer
// goroutine calls gen in index order and starts each run on a goroutine
// of its own; order carries each run's result channel in index order.
// order holds width-1 channels and the loop holds one, so at most width
// runs are drawn and not yet consumed.
type runPipeline struct {
	order    chan chan runResult
	done     chan struct{}
	wg       sync.WaitGroup
	executed atomic.Int64
}

// startRuns starts drawing and executing the first limit runs of gen, at
// most width ahead of the loop that consumes them.
func startRuns(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	cfg Config, limit, width int) *runPipeline {
	p := &runPipeline{order: make(chan chan runResult, width-1), done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for i := 0; i < limit; i++ {
			res := make(chan runResult, 1)
			select {
			case p.order <- res:
			case <-p.done:
				return
			}
			// A select picks at random among ready cases: draw nothing once
			// the loop has stopped.
			select {
			case <-p.done:
				return
			default:
			}
			// Cancellation is checked before a run is drawn, as the
			// sequential loop checks it.
			if err := ctx.Err(); err != nil {
				res <- runResult{err: err, cancelled: true}
				return
			}
			in := gen(i)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				select {
				case <-p.done:
					return // drawn past the end; never consumed
				default:
				}
				p.executed.Add(1)
				run, err := CollectRun(prog, in, cfg, i)
				res <- runResult{run: run, err: err}
			}()
		}
	}()
	return p
}

// next returns the result of the next run in index order.
func (p *runPipeline) next() runResult { return <-<-p.order }

// stop discards the runs not yet consumed, waits for the drawer and every
// run in flight, and returns the number of runs executed.
func (p *runPipeline) stop() int {
	close(p.done)
	p.wg.Wait()
	return int(p.executed.Load())
}
