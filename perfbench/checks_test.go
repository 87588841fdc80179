package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/workload"
)

// truncated returns a copy of w with every string input cut to one byte.
func truncated(w *interp.Input) *interp.Input {
	cut := func(m map[string]string) map[string]string {
		out := map[string]string{}
		for k, v := range m {
			out[k] = v[:min(len(v), 1)]
		}
		return out
	}
	m := &interp.Input{Ints: w.Ints, Strs: cut(w.Strs), Env: cut(w.Env)}
	for _, a := range w.Args {
		m.Args = append(m.Args, a[:min(len(a), 1)])
	}
	return m
}

func TestWitnessCheckRejectsMutatedWitness(t *testing.T) {
	app, prog, err := compileApp("polymorph", nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunJob(context.Background(), core.JobInputs{Prog: prog, Spec: app.Spec, Corpus: c}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Found() {
		t.Fatal("polymorph: no vulnerability found")
	}
	v := rep.Vuln
	if err := checkWitness(app, prog, v.Kind, v.Func, v.Witness); err != nil {
		t.Fatalf("reported witness rejected: %v", err)
	}
	if err := checkWitness(app, prog, v.Kind, v.Func, truncated(v.Witness)); err == nil {
		t.Error("witness with truncated strings accepted")
	}
	if err := checkWitness(app, prog, v.Kind, "main", v.Witness); err == nil ||
		!strings.Contains(err.Error(), "not a documented vulnerability") {
		t.Errorf("fault claimed in main accepted: %v", err)
	}
	if err := checkWitness(app, prog, v.Kind, v.Func, nil); err == nil {
		t.Error("missing witness accepted")
	}
}

func TestRepeatsMustAgree(t *testing.T) {
	job := Job{Key: "thttpd/seed1"}
	a := &result{Job: job, Digest: "d", Steps: []int64{60000, 49641}}
	b := &result{Job: job, Digest: "d", Steps: []int64{60000, 49641}}
	c := &result{Job: job, Digest: "d", Steps: []int64{60000, 49642}}
	d := &result{Job: job, Digest: "other", Steps: []int64{60000, 49641}}
	checkRepeats([]*result{a, b, c, d})
	if len(a.Fail)+len(b.Fail) != 0 || len(c.Fail) != 1 || len(d.Fail) != 1 {
		t.Errorf("failures: %v %v %v %v", a.Fail, b.Fail, c.Fail, d.Fail)
	}
}

func TestSummarizeTakesMediansOverPasses(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var rs []*result
	for i := 0; i < 12; i++ { // two passes of six back-to-back 100 ms jobs
		rs = append(rs, &result{Job: Job{Seq: i, Pass: i / 6}, Start: at(100 * i),
			Latency: 100 * time.Millisecond, Found: i%2 == 0})
	}
	rs[3].fail("job failed")
	rs[4].Refused = 2 // two 429s, then admitted
	rs = append(rs, &result{Job: Job{Seq: 12, Pass: 1, Ingest: true}, Start: at(1100), Latency: 50 * time.Millisecond})
	rs[12].fail("ingest error")
	mib := uint64(1 << 20)
	samples := []sample{
		{at(0), 0, 1 * mib},
		{at(300), 600 * time.Millisecond, 3 * mib},
		{at(600), 1200 * time.Millisecond, 2 * mib},
		{at(900), 1500 * time.Millisecond, 5 * mib},
		{at(1200), 1800 * time.Millisecond, 1 * mib},
	}
	e, err := summarize(rs, 1.5, samples)
	if err != nil {
		t.Fatal(err)
	}
	if e.Jobs != 12 || e.Attempted != 15 || e.Failed != 4 || e.Passes != 2 {
		t.Errorf("jobs %d attempted %d failed %d passes %d, want 12, 15, 4, 2", e.Jobs, e.Attempted, e.Failed, e.Passes)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	// Pass 0 spends 1.2 s of CPU with a 3 MiB peak, pass 1 0.6 s and 5 MiB.
	if !near(e.JobsPerS, 10) || !near(e.CPUPerJobS, 0.15) || !near(e.PeakLiveMB, 4) ||
		!near(e.JobP50S, 0.1) || e.FoundFrac != 0.5 || e.SetupS != 1.5 {
		t.Errorf("metrics %+v", e)
	}
	if e.JobTail.Samples != 12 || e.JobTail.Value != 0.1 {
		t.Errorf("tail %+v, want rank 2 of 12", e.JobTail)
	}
}

func TestSummarizeTakesTailPerPassWhenPassesAreLarge(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var rs []*result
	start := t0
	for pass := 0; pass < 2; pass++ {
		for i := 1; i <= 12; i++ { // pass 1 runs every job twice as slowly
			d := time.Duration(i*(pass+1)) * time.Millisecond
			rs = append(rs, &result{Job: Job{Seq: len(rs), Pass: pass}, Start: start, Latency: d})
			start = start.Add(d)
		}
	}
	samples := []sample{{at: t0}, {at: start}}
	e, err := summarize(rs, 0, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2 of 12 in each pass: 2 ms and 4 ms, median 3 ms.
	if math.Abs(e.JobTail.Value-0.003) > 1e-12 || e.JobTail.Passes != 2 || e.JobTail.Samples != 12 {
		t.Errorf("tail %+v, want 3 ms as the median of two per-pass tails", e.JobTail)
	}
	if want := "p16.7 of 12 (10 beyond) per pass, median of 2 passes"; e.JobTail.Label() != want {
		t.Errorf("label %q, want %q", e.JobTail.Label(), want)
	}
}
