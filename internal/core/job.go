package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// JobInputs bundles one analysis request: the compiled program, its
// symbolic input spec, and exactly one corpus source — an in-memory corpus
// or an on-disk segment store. Every caller of the pipeline (the CLIs,
// the benchmarks, and the statsymd daemon) assembles one of these and
// hands it to RunJob.
type JobInputs struct {
	Prog   *bytecode.Program
	Spec   *symexec.InputSpec
	Corpus *trace.Corpus // exactly one of Corpus / Store
	Store  *corpus.Store
}

// RunJob executes the StatSym pipeline of Fig. 5 for one job under ctx:
//
//	(a)–(d) statistical analysis: predicates construction and ranking;
//	        candidate-path construction (skeleton + detours);
//	(e)     statistics-guided symbolic execution per candidate path until
//	        a vulnerable path is verified or candidates run out.
//
// The config's Spec is overridden by the job's. The statistical front-end
// streams the corpus source in bounded memory either way, so a store and
// the in-memory corpus it holds produce identical reports (modulo
// LogBytes, which is the store's compressed on-disk size). Cancelling ctx
// stops the symbolic-execution phase cooperatively: the in-flight
// attempts wind down within one scheduling quantum, and the partial report
// (statistics, completed attempts, counters so far) is returned with
// Report.Cancelled set and no error.
func RunJob(ctx context.Context, in JobInputs, cfg Config) (*Report, error) {
	return runJob(ctx, in, cfg, verifyCandidates)
}

// verifyFunc schedules the ranked candidate attempts of one run and merges
// their outcomes into the report.
type verifyFunc func(ctx context.Context, prog *bytecode.Program, cands []*pathid.CandidatePath, cfg Config, rep *Report)

// runJob is RunJob with the candidate scheduler as a parameter, so tests
// can run the same pipeline around a reference scheduler.
func runJob(ctx context.Context, in JobInputs, cfg Config, verify verifyFunc) (*Report, error) {
	if in.Prog == nil {
		return nil, fmt.Errorf("core: job has no program")
	}
	switch {
	case in.Corpus != nil && in.Store != nil:
		return nil, fmt.Errorf("core: job has both an in-memory corpus and a store")
	case in.Corpus == nil && in.Store == nil:
		return nil, fmt.Errorf("core: job has no corpus")
	}
	cfg.Spec = in.Spec
	cfg = cfg.withDefaults()
	prog := in.Prog
	rep := &Report{Program: prog.Name}

	spanAttrs := []obs.Attr{obs.A("program", prog.Name)}
	var runs func() trace.RunIterator
	if in.Store != nil {
		if in.Store.Obs == nil {
			in.Store.Obs = obs.FromContext(ctx)
		}
		var err error
		rep.Runs, rep.Locations, rep.Variables, err = in.Store.Counts()
		if err != nil {
			return rep, fmt.Errorf("core: corpus store: %w", err)
		}
		rep.LogBytes = int(in.Store.TotalBytes())
		runs = func() trace.RunIterator { return in.Store.Iter() }
		spanAttrs = append(spanAttrs, obs.A("store", in.Store.Dir()))
	} else {
		rep.Runs, rep.Locations, rep.Variables = in.Corpus.Counts()
		rep.LogBytes = in.Corpus.SizeBytes()
		runs = in.Corpus.Iter
	}

	// The "pipeline" span is the trace root. When the caller already
	// opened one (cmd/statsym and bench wrap corpus collection plus this
	// call in a single root so the monitor phase nests under it), reuse
	// it instead of opening a second root.
	if obs.SpanFromContext(ctx) == nil {
		var pspan *obs.Span
		ctx, pspan = obs.StartSpan(ctx, "pipeline", spanAttrs...)
		defer func() {
			pspan.End(obs.A("found", rep.Found()), obs.A("cancelled", rep.Cancelled),
				obs.A("paths", rep.TotalPaths), obs.A("steps", rep.TotalSteps))
		}()
	}

	// Statistical analysis module. With a CacheDir, the phase's output —
	// a pure function of (corpus, path config) — is memoized on disk and
	// replayed on warm runs whose corpus fingerprint matches; a hit skips
	// both predicate derivation and candidate construction. Byte-exact
	// replay, so detection is untouched (pinned by the cold-vs-warm
	// differential tests); bypassed when the caller needs the transition
	// graph, which the artifact does not carry. The memo fingerprints
	// in-memory corpora only; a store is always analyzed.
	statStart := time.Now()
	memo := in.Corpus != nil && cfg.CacheDir != "" && !cfg.NeedGraph
	var corpusFP uint64
	if memo {
		corpusFP = corpusFingerprint(in.Corpus)
		if analysis, pres, ok := loadStatsCache(cfg.CacheDir, corpusFP, prog.Name, cfg.Path); ok {
			rep.Analysis, rep.PathRes, rep.StatsCached = analysis, pres, true
			rep.StatTime = time.Since(statStart)
			if o := obs.FromContext(ctx); o != nil {
				o.Metrics.Counter(obs.MetricStatsCacheHits).Add(1)
			}
			obs.Progress(ctx, obs.A("phase", "stats"), obs.A("cached", true),
				obs.A("predicates", len(rep.Analysis.Predicates)),
				obs.A("candidates", len(rep.PathRes.Candidates)))
		}
	}
	if !rep.StatsCached {
		err := analyze(ctx, runs, cfg, rep)
		rep.StatTime = time.Since(statStart)
		if err != nil {
			return rep, err
		}
		if memo {
			if o := obs.FromContext(ctx); o != nil {
				o.Metrics.Counter(obs.MetricStatsCacheMisses).Add(1)
			}
			saveStatsCache(cfg.CacheDir, corpusFP, prog.Name, cfg.Path, rep.Analysis, rep.PathRes)
		}
	}

	if err := runSymPhase(ctx, prog, cfg, rep, verify); err != nil {
		return rep, err
	}
	return rep, nil
}

// analyze is the statistical front-end: one streaming pass over the runs
// builds the ranked predicates, a second mines the transition graph and
// the candidate paths. Each pass holds counters and value sketches, never
// the corpus. The phase always completes — cancellation is observed by the
// symbolic phase, so a cancelled run still reports its statistics.
func analyze(ctx context.Context, runs func() trace.RunIterator, cfg Config, rep *Report) error {
	_, aspan := obs.StartSpan(ctx, "stats")
	it := runs()
	analysis, err := stats.AnalyzeStream(context.WithoutCancel(ctx), it, stats.StreamOpts{})
	closeIter(it)
	if err != nil {
		aspan.End(obs.A("error", err.Error()))
		return fmt.Errorf("core: streaming analysis: %w", err)
	}
	rep.Analysis = analysis
	aspan.End(obs.A("predicates", len(analysis.Predicates)))
	obs.Progress(ctx, obs.A("phase", "stats"), obs.A("predicates", len(analysis.Predicates)))

	_, cspan := obs.StartSpan(ctx, "candidates")
	it = runs()
	pres, err := pathid.BuildStream(it, analysis, cfg.Path)
	closeIter(it)
	if err != nil {
		cspan.End(obs.A("error", err.Error()))
		return fmt.Errorf("core: candidate path construction: %w", err)
	}
	cspan.End(obs.A("candidates", len(pres.Candidates)), obs.A("detours", len(pres.Detours)))
	obs.Progress(ctx, obs.A("phase", "candidates"),
		obs.A("candidates", len(pres.Candidates)), obs.A("detours", len(pres.Detours)))
	rep.PathRes = pres
	return nil
}

// closeIter releases an iterator's resources (a store iterator's open
// segment file); in-memory iterators hold none.
func closeIter(it trace.RunIterator) {
	if c, ok := it.(io.Closer); ok {
		c.Close()
	}
}
