package core

import (
	"context"
	"testing"
)

// TestRunContextAlreadyCancelled: a dead context must still yield a
// well-formed partial report — statistical analysis present, no candidate
// attempts, Cancelled flagged — with no error.
func TestRunContextAlreadyCancelled(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := runCorpus(ctx, app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatalf("cancelled pipeline returned error: %v", err)
	}
	if !rep.Cancelled {
		t.Errorf("Cancelled not set on partial report")
	}
	if rep.Found() {
		t.Errorf("found a vulnerability under a dead context: %+v", rep.Vuln)
	}
	if rep.Analysis == nil || rep.PathRes == nil {
		t.Fatalf("partial report missing analysis results: %+v", rep)
	}
	if len(rep.PathRes.Candidates) == 0 {
		t.Errorf("statistical analysis produced no candidates")
	}
	for _, c := range rep.Candidates {
		if c.Found {
			t.Errorf("candidate %d claims a find under a dead context", c.Index)
		}
	}
}

// TestRunContextAlreadyCancelledParallel: same contract through the
// pool with several local slots.
func TestRunContextAlreadyCancelledParallel(t *testing.T) {
	app, corpus := appCorpus(t, "thttpd")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := runCorpus(ctx, app.Program(), corpus, Config{Spec: app.Spec, Parallel: 4})
	if err != nil {
		t.Fatalf("cancelled parallel pipeline returned error: %v", err)
	}
	if !rep.Cancelled {
		t.Errorf("Cancelled not set on partial report")
	}
	if rep.Found() {
		t.Errorf("found a vulnerability under a dead context: %+v", rep.Vuln)
	}
}

// TestVerifyCandidateRank: the explicit rank parameter must flow into the
// outcome's 1-based Index.
func TestVerifyCandidateRank(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	rep, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PathRes.Candidates) == 0 {
		t.Fatal("no candidates to verify")
	}
	cand := rep.PathRes.Candidates[0]
	out, _ := VerifyCandidateCtx(context.Background(), app.Program(), cand, 3, Config{Spec: app.Spec})
	if out.Index != 3 {
		t.Errorf("outcome Index = %d, want the rank passed in (3)", out.Index)
	}
}
