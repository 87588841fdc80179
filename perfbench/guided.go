package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// guidedBench runs analysis-only thttpd jobs through core.RunJob: the
// sequential Fig. 5 loop, τ = 10, a fixed per-candidate step budget, on
// 30%-sampled corpora collected during set-up.
type guidedBench struct {
	app     *apps.App
	prog    *bytecode.Program
	corpora map[int64]*trace.Corpus
}

func guidedConfig() core.Config {
	return core.Config{Tau: core.DefaultTau, PerCandidateMaxSteps: guidedStepBudget}
}

func (b *guidedBench) setup(ctx context.Context, rec *Recorder, acc *layers) error {
	sid := rec.Begin("setup", 0, -1)
	defer rec.End(sid)
	var err error
	if b.app, b.prog, err = compileApp("thttpd", rec, sid, acc); err != nil {
		return err
	}
	b.corpora = map[int64]*trace.Corpus{}
	src := newCorpusSource(b.app, acc != nil)
	for s := int64(1); s <= guidedPool; s++ {
		c, err := src.collect(ctx, s, 0.3, rec, sid, acc)
		if err != nil {
			return err
		}
		b.corpora[s] = c
	}
	return nil
}

func (b *guidedBench) run(ctx context.Context, jobs []Job, rec *Recorder, acc *layers) []*result {
	out := make([]*result, 0, len(jobs))
	for _, j := range jobs {
		r := &result{Job: j}
		settle()
		r.Start = time.Now()
		var rep *core.Report
		var err error
		if rec == nil {
			in := core.JobInputs{Prog: b.prog, Spec: b.app.Spec, Corpus: b.corpora[j.Seed]}
			rep, err = core.RunJob(ctx, in, guidedConfig())
		} else {
			c := b.corpora[j.Seed]
			load := func(int64) (*trace.Corpus, error) { return c, nil }
			rep, err = layeredJob(ctx, b.prog, b.app.Spec, load, guidedConfig(), j.Seq, rec, 0, acc)
		}
		r.Latency = time.Since(r.Start)
		if err != nil {
			r.fail("job %d (%s): %v", j.Seq, j.Key, err)
		} else {
			r.fillReport(rep)
		}
		out = append(out, r)
	}
	return out
}

func (b *guidedBench) check(context.Context, []*result, *Recorder, *layers) {}

func (b *guidedBench) programs() map[string]*bytecode.Program {
	return map[string]*bytecode.Program{b.app.Name: b.prog}
}

func (b *guidedBench) close() {}

// compileApp compiles an app's MiniC source (minic parse and check, then
// bytecode.Compile) inside a "compile" span.
func compileApp(name string, rec *Recorder, parent int64, acc *layers) (*apps.App, *bytecode.Program, error) {
	app, err := apps.Get(name)
	if err != nil {
		return nil, nil, err
	}
	id := rec.Begin("compile", parent, -1)
	t0 := time.Now()
	ast, err := minic.ParseAndCheck(app.Source)
	var prog *bytecode.Program
	if err == nil {
		ast.Name = app.Name
		prog, err = bytecode.Compile(ast)
	}
	d := time.Since(t0)
	rec.End(id)
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", name, err)
	}
	if acc != nil {
		acc.addCompile(d)
	}
	return app, prog, nil
}

// corpusSource collects corpora for one app through
// workload.BuildCorpusCtx. When counting, it hands the monitor a copy of
// the app whose input generator counts the runs it draws — one per run
// the monitor executes — so the kept ratio is measured from outside.
type corpusSource struct {
	app   *apps.App
	drawn *atomic.Int64
}

func newCorpusSource(app *apps.App, counting bool) *corpusSource {
	if !counting {
		return &corpusSource{app: app}
	}
	drawn := new(atomic.Int64)
	gen := app.NewInput
	counted := &apps.App{
		Name: app.Name, Description: app.Description, Source: app.Source, Spec: app.Spec,
		VulnFunc: app.VulnFunc, VulnKind: app.VulnKind, PureFails: app.PureFails,
		NewInput: func(rng *rand.Rand) *interp.Input {
			drawn.Add(1)
			return gen(rng)
		},
	}
	return &corpusSource{app: counted, drawn: drawn}
}

func (s *corpusSource) collect(ctx context.Context, seed int64, rate float64, rec *Recorder, parent int64, acc *layers) (*trace.Corpus, error) {
	var before int64
	if s.drawn != nil {
		before = s.drawn.Load()
	}
	id := rec.Begin("monitor", parent, -1)
	t0 := time.Now()
	c, err := workload.BuildCorpusCtx(ctx, s.app, workload.Options{SampleRate: rate, Seed: seed})
	d := time.Since(t0)
	rec.End(id)
	if err != nil {
		return nil, err
	}
	if acc != nil {
		acc.addCorpus(d, int(s.drawn.Load()-before), len(c.Runs), c.SizeBytes())
	}
	return c, nil
}

// layeredJob is core.RunJob taken apart into the layer functions
// RunContext calls — stats.Analyze, pathid.Build, and
// core.VerifyCandidateCtx per ranked candidate until one verifies — each
// inside a span, with runtime.MemStats deltas around every attempt. load
// supplies the job's corpus inside the job span. The decomposition is the
// sequential Fig. 5 loop without caches, which is what RunContext runs
// without Parallel, Dispatch or CacheDir; the parallel and dispatch
// engines merge the same attempts in rank order, so outcomes and step
// counts agree for those specs too (the check compares them).
func layeredJob(ctx context.Context, prog *bytecode.Program, spec *symexec.InputSpec,
	load func(parent int64) (*trace.Corpus, error),
	cfg core.Config, seq int, rec *Recorder, parent int64, acc *layers) (*core.Report, error) {
	jid := rec.Begin("job", parent, seq)
	t0 := time.Now()
	defer func() {
		rec.End(jid)
		acc.addJob(time.Since(t0))
	}()
	cfg.Spec = spec
	rep := &core.Report{Program: prog.Name}
	c, err := load(jid)
	if err != nil {
		return rep, err
	}

	id := rec.Begin("stats", jid, seq)
	ts := time.Now()
	rep.Analysis = stats.Analyze(c)
	acc.addStats(time.Since(ts), len(rep.Analysis.Predicates))
	rec.End(id)

	id = rec.Begin("pathid", jid, seq)
	ts = time.Now()
	pres, err := pathid.Build(c, rep.Analysis, cfg.Path)
	rec.End(id)
	if err != nil {
		return rep, fmt.Errorf("candidate path construction: %w", err)
	}
	acc.addPathid(time.Since(ts), len(pres.Candidates))
	rep.PathRes = pres

	for i, cand := range pres.Candidates {
		mem := readMem()
		id = rec.Begin("verify", jid, seq)
		ts = time.Now()
		out, vuln := core.VerifyCandidateCtx(ctx, prog, cand, i+1, cfg)
		d := time.Since(ts)
		rec.End(id)
		acc.addAttempt(out, d, memSince(mem))
		rep.Candidates = append(rep.Candidates, out)
		rep.TotalPaths += out.Paths
		rep.TotalSteps += out.Steps
		if vuln != nil {
			rep.Vuln, rep.CandidateUsed = vuln, i+1
			break
		}
	}
	return rep, nil
}
