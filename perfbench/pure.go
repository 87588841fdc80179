package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/symexec"
)

// Pure BFS budgets: the paper's Table IV baseline runs to the live-state
// budget; the step budget is the executor default and is never reached.
const (
	pureMaxStates = 20_000
	pureMaxSteps  = 20_000_000
	// pureWarmSteps bounds the set-up's warm-up run of each program.
	pureWarmSteps = 50_000
)

// pureBench runs the pure-symbolic-execution baseline (core.RunPureContext,
// BFS) on the paper's four programs.
type pureBench struct {
	apps  map[string]*apps.App
	progs map[string]*bytecode.Program
}

// setup compiles the four programs and warms the executor with one short
// BFS run of each, so the first timed job does not pay for growing the
// heap from empty.
func (b *pureBench) setup(ctx context.Context, rec *Recorder, acc *layers) error {
	sid := rec.Begin("setup", 0, -1)
	defer rec.End(sid)
	b.apps, b.progs = map[string]*apps.App{}, map[string]*bytecode.Program{}
	for _, j := range pureBreadth().Pool {
		app, prog, err := compileApp(j.App, rec, sid, acc)
		if err != nil {
			return err
		}
		b.apps[j.App], b.progs[j.App] = app, prog
	}
	for _, j := range pureBreadth().Pool {
		id := rec.Begin("warmup", sid, -1)
		res := core.RunPureContext(ctx, b.progs[j.App], b.apps[j.App].Spec, pureMaxStates, pureWarmSteps, 0)
		rec.End(id)
		if res.Steps == 0 {
			return fmt.Errorf("warm-up of %s executed no steps", j.App)
		}
	}
	return nil
}

func (b *pureBench) run(ctx context.Context, jobs []Job, rec *Recorder, acc *layers) []*result {
	out := make([]*result, 0, len(jobs))
	for _, j := range jobs {
		r := &result{Job: j}
		prog, spec := b.progs[j.App], b.apps[j.App].Spec
		settle()
		r.Start = time.Now()
		var res *symexec.Result
		if rec == nil {
			res = core.RunPureContext(ctx, prog, spec, pureMaxStates, pureMaxSteps, 0)
		} else {
			res = tracedPure(ctx, prog, spec, j.Seq, rec, acc)
		}
		r.Latency = time.Since(r.Start)
		if acc != nil {
			acc.addJob(r.Latency)
		}
		r.fillPure(res)
		if res.Cancelled || res.TimedOut {
			r.fail("job %d (%s): run stopped early (cancelled %v, timed out %v)", j.Seq, j.Key, res.Cancelled, res.TimedOut)
		}
		out = append(out, r)
	}
	return out
}

// tracedPure is the same call inside a "job" and a "symexec" span, with
// runtime.MemStats deltas around it.
func tracedPure(ctx context.Context, prog *bytecode.Program, spec *symexec.InputSpec, seq int, rec *Recorder, acc *layers) *symexec.Result {
	jid := rec.Begin("job", 0, seq)
	defer rec.End(jid)
	mem := readMem()
	id := rec.Begin("symexec", jid, seq)
	t0 := time.Now()
	res := core.RunPureContext(ctx, prog, spec, pureMaxStates, pureMaxSteps, 0)
	d := time.Since(t0)
	rec.End(id)
	acc.addPure(res, d, memSince(mem))
	return res
}

// fillPure records what a pure run found. Its digest covers the outcome
// and the effort counters, which are deterministic for BFS.
func (r *result) fillPure(res *symexec.Result) {
	r.Found = res.Found()
	r.Steps = []int64{res.Steps}
	site := "none"
	if res.Found() {
		v := res.Vulns[0]
		site = v.Site()
		r.setVuln(v)
	}
	r.Digest = fmt.Sprintf("found=%v site=%s exhausted=%v step-limited=%v paths=%d\n",
		res.Found(), site, res.Exhausted, res.StepLimited, res.Paths)
}

func (b *pureBench) check(context.Context, []*result, *Recorder, *layers) {}

func (b *pureBench) programs() map[string]*bytecode.Program { return b.progs }

func (b *pureBench) close() {}
