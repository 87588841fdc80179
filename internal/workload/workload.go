// Package workload assembles labeled log corpora for the evaluation
// programs. It emulates the paper's log collection (§VII-A): generate a
// large number of random user runs, label each correct or faulty by its
// concrete outcome, and sample a balanced set (one hundred of each in the
// paper) at the configured logging rate.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// Options configures corpus construction.
type Options struct {
	// SampleRate is the per-event logging probability (1.0 or 0.3 in the
	// paper's main tables; 0.2–1.0 in the sensitivity study).
	SampleRate float64
	// Seed drives both input generation and log sampling.
	Seed int64
	// Correct and Faulty are the run counts to collect (default 100/100).
	Correct, Faulty int
}

// DefaultRuns is the paper's per-class run count.
const DefaultRuns = 100

// BuildCorpus generates inputs with the app's workload generator, executes
// them under the program monitor, and returns a balanced labeled corpus.
func BuildCorpus(app *apps.App, opts Options) (*trace.Corpus, error) {
	return BuildCorpusCtx(context.Background(), app, opts)
}

// BuildCorpusCtx is BuildCorpus with cancellation and tracing: the
// monitor's collection span and run/record counters attach to whatever
// observability handle rides in ctx.
func BuildCorpusCtx(ctx context.Context, app *apps.App, opts Options) (*trace.Corpus, error) {
	gen, nc, nf, cfg := opts.collection(app)
	corpus, err := monitor.BalancedCorpusCtx(ctx, app.Program(), gen, nc, nf, cfg)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", app.Name, err)
	}
	return corpus, nil
}

// BuildCorpusStoreCtx is BuildCorpusCtx spilling straight to a segmented
// on-disk corpus store: the balanced collection loop appends each accepted
// run to the store and never holds the corpus in memory. With an empty
// store and the same options, the stored runs are identical (content,
// order, IDs) to what BuildCorpusCtx returns. A failed or cancelled
// collection leaves the store as it was.
func BuildCorpusStoreCtx(ctx context.Context, app *apps.App, opts Options, store *corpus.Store, wopts corpus.Options) error {
	gen, nc, nf, cfg := opts.collection(app)
	if err := monitor.BalancedCorpusStoreCtx(ctx, app.Program(), gen, nc, nf, cfg, store, wopts); err != nil {
		return fmt.Errorf("workload: %s: %w", app.Name, err)
	}
	return nil
}

// collection resolves the options into the balanced collection's inputs:
// the app's input generator seeded from opts.Seed, the correct/faulty
// quotas (default DefaultRuns each), and the monitor config.
func (opts Options) collection(app *apps.App) (gen func(i int) *interp.Input, nc, nf int, cfg monitor.Config) {
	nc, nf = opts.Correct, opts.Faulty
	if nc == 0 {
		nc = DefaultRuns
	}
	if nf == 0 {
		nf = DefaultRuns
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	gen = func(i int) *interp.Input { return app.NewInput(rng) }
	return gen, nc, nf, monitor.Config{SampleRate: opts.SampleRate, Seed: opts.Seed}
}

// FaultRate estimates the generator's raw fault probability over n runs
// (diagnostics for workload tuning).
func FaultRate(app *apps.App, seed int64, n int) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	faults := 0
	for i := 0; i < n; i++ {
		res, err := interp.Run(app.Program(), app.NewInput(rng), interp.Config{})
		if err != nil {
			return 0, err
		}
		if res.Faulty() {
			faults++
		}
	}
	return float64(faults) / float64(n), nil
}
