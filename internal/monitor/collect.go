package monitor

import (
	"context"
	"errors"
	"fmt"
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
// The loop is also the observability entry point: it opens a "monitor"
// span under whatever parent rides in ctx, folds run and record counts
// into the metrics registry, emits periodic progress snapshots (it can run
// up to 100× the requested count when faults are rare, so it is the long
// pole worth watching live), and checks ctx between concrete runs so a
// caller cancellation stops collection promptly. Unlike the pipeline
// (which returns a partial report), an interrupted collection returns
// ctx.Err() and keeps nothing: a truncated corpus would silently skew the
// statistical analysis downstream.

// BalancedCorpusCtx collects logs until it has wantCorrect correct and
// wantFaulty faulty runs, drawing inputs from gen, and returns them as an
// in-memory corpus. It returns an error when the generator cannot produce
// the requested mix within 100× the requested run count.
func BalancedCorpusCtx(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int, cfg Config) (*trace.Corpus, error) {
	c := &trace.Corpus{Program: prog.Name}
	err := collectBalanced(ctx, prog, gen, wantCorrect, wantFaulty, cfg, destination{
		keep: func(run *trace.Run) error {
			c.Runs = append(c.Runs, *run)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// BalancedCorpusStoreCtx is BalancedCorpusCtx appending the kept runs to a
// store. Peak memory is one run plus the writer's block buffer. The runs
// become visible only once both quotas fill: on cancellation, a collection
// error, or an exhausted generator every run appended so far is discarded,
// so the store holds exactly what it held before the call.
func BalancedCorpusStoreCtx(ctx context.Context, prog *bytecode.Program, gen func(i int) *interp.Input,
	wantCorrect, wantFaulty int, cfg Config, store *corpus.Store, wopts corpus.Options) error {
	w := store.NewWriter(wopts)
	return collectBalanced(ctx, prog, gen, wantCorrect, wantFaulty, cfg, destination{
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
	})
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
	fail := func(err error, attr obs.Attr) error {
		if dst.discard != nil {
			if derr := dst.discard(); derr != nil {
				err = errors.Join(err, fmt.Errorf("monitor: discarding kept runs: %w", derr))
			}
		}
		sp.End(attr)
		return err
	}
	o := obs.FromContext(ctx)
	lastSnap := time.Now()

	nc, nf, records := 0, 0, 0
	limit := (wantCorrect + wantFaulty) * 100
	for i := 0; i < limit && (nc < wantCorrect || nf < wantFaulty); i++ {
		if err := ctx.Err(); err != nil {
			return fail(err, obs.A("cancelled", true))
		}
		run, err := CollectRun(prog, gen(i), cfg, i)
		if err != nil {
			return fail(err, obs.A("error", err.Error()))
		}
		if o != nil && o.Interval > 0 && time.Since(lastSnap) >= o.Interval {
			lastSnap = time.Now()
			o.Progress(sp,
				obs.A("generated", i+1),
				obs.A("correct", nc), obs.A("faulty", nf))
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
		records += len(run.Records)
		run.ID = dst.firstID + nc + nf - 1
		if err := dst.keep(run); err != nil {
			return fail(err, obs.A("error", err.Error()))
		}
	}
	if nc < wantCorrect || nf < wantFaulty {
		return fail(fmt.Errorf("monitor: generator yielded %d correct / %d faulty runs, want %d/%d",
			nc, nf, wantCorrect, wantFaulty), obs.A("error", "generator exhausted"))
	}
	end := []obs.Attr{obs.A("runs", nc+nf), obs.A("records", records)}
	if dst.commit != nil {
		extra, err := dst.commit()
		if err != nil {
			return fail(err, obs.A("error", err.Error()))
		}
		end = append(end, extra...)
	}
	noteRuns(ctx, nc+nf, records)
	sp.End(end...)
	return nil
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
