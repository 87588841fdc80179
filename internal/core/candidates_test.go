package core

import (
	"context"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"

	"repro/internal/apps"
)

// TestInfeasibleCandidateThenGood reproduces the thttpd §VII-C2 story in
// miniature: the first candidate path is infeasible (its node order cannot
// occur), the verification loop marks it as such within its budget, and
// the second (correct) candidate verifies the vulnerability.
func TestInfeasibleCandidateThenGood(t *testing.T) {
	src := `
func stage_a(int x) int { return x + 1; }
func stage_b(int x) int {
  buf b[8];
  int i = 0;
  while (i < x) {
    bufwrite(b, i, i);
    i = i + 1;
  }
  return i;
}
func main() int {
  int x = input_int("x");
  if (x < 0) { return 0; }
  if (x > 40) { return 0; }
  stage_a(x);
  stage_b(x);
  return 0;
}`
	prog := bytecode.MustCompile("twostage", src)
	loc := func(f string, k trace.EventKind) trace.Location {
		return trace.Location{Func: f, Kind: k}
	}
	pred := &stats.Predicate{
		Loc: loc("stage_b", trace.EventEnter), Var: "x",
		Class: trace.ClassParam, Op: stats.PredGe, Threshold: 8.5, Score: 1.0,
	}
	// Candidate 1 is impossible: it demands stage_b before stage_a, and a
	// predicate that the never-reached cursor would have applied. With a
	// modest per-candidate budget it is abandoned.
	bad := &pathid.CandidatePath{Nodes: []pathid.PathNode{
		{Loc: loc("main", trace.EventEnter)},
		{Loc: loc("stage_b", trace.EventLeave)},
		{Loc: loc("stage_b", trace.EventLeave)}, // unreachable twice
		{Loc: loc("stage_a", trace.EventEnter)},
	}}
	good := &pathid.CandidatePath{Nodes: []pathid.PathNode{
		{Loc: loc("main", trace.EventEnter)},
		{Loc: loc("stage_a", trace.EventEnter)},
		{Loc: loc("stage_b", trace.EventEnter), Pred: pred},
	}}
	cfg := Config{PerCandidateMaxSteps: 200_000}

	outBad, vulnBad := VerifyCandidateCtx(context.Background(), prog, bad, 1, cfg)
	outGood, vulnGood := VerifyCandidateCtx(context.Background(), prog, good, 1, cfg)

	// The bad candidate may or may not stumble onto the bug via fallback
	// (footnote 1 semantics); the good candidate must find it quickly
	// with the predicate applied.
	if vulnGood == nil {
		t.Fatalf("good candidate failed: %+v", outGood)
	}
	if outGood.Matches < 3 {
		t.Errorf("good candidate matched %d nodes, want 3", outGood.Matches)
	}
	if vulnGood.Witness.Ints["x"] < 8 {
		t.Errorf("witness x = %d, predicate not applied", vulnGood.Witness.Ints["x"])
	}
	if vulnBad == nil && !outBad.Infeasible {
		t.Errorf("bad candidate neither found nor marked infeasible: %+v", outBad)
	}
	if vulnGood != nil && outGood.Steps > outBad.Steps && vulnBad == nil {
		t.Errorf("good candidate (%d steps) cost more than abandoned bad one (%d)",
			outGood.Steps, outBad.Steps)
	}
}

// TestPipelineIteratesCandidates checks the candidate loop end to end: the
// report's CandidateUsed points at the candidate that actually succeeded,
// and earlier entries (if any) are marked non-found.
func TestPipelineIteratesCandidates(t *testing.T) {
	app, _ := apps.Get("thttpd")
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Found() {
		t.Fatal("not found")
	}
	for i, c := range rep.Candidates {
		isLast := i == len(rep.Candidates)-1
		if isLast && !c.Found {
			t.Errorf("last attempted candidate not marked found")
		}
		if !isLast && c.Found {
			t.Errorf("non-final candidate %d marked found", i+1)
		}
	}
	if got := rep.Candidates[len(rep.Candidates)-1].Index; got != rep.CandidateUsed {
		t.Errorf("CandidateUsed = %d, last attempt = %d", rep.CandidateUsed, got)
	}
}
