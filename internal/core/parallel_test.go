package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/workload"
)

// runBoth executes the pipeline on one corpus twice — the paper's
// sequential loop (the reference oracle) and the slot pool with several
// local slots — under step/state budgets only (no wall-clock limits), so
// both runs are fully deterministic.
func runBoth(t *testing.T, name string, workers int) (seq, par *Report) {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Spec: app.Spec}
	seq, err = runSequentialOracle(app.Program(), corpus, base)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := base
	parCfg.Parallel = workers
	par, err = runCorpus(context.Background(), app.Program(), corpus, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	return seq, par
}

// TestParallelMatchesSequential: with Parallel > 1 the report's counters
// must be identical to the sequential loop on every evaluation app — the
// determinism guarantee documented on verifyCandidates.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"polymorph", "ctree", "thttpd", "grep"} {
		t.Run(name, func(t *testing.T) {
			seq, par := runBoth(t, name, 4)
			if seq.Found() != par.Found() {
				t.Fatalf("found: sequential %v, parallel %v", seq.Found(), par.Found())
			}
			if par.CandidateUsed != seq.CandidateUsed {
				t.Errorf("CandidateUsed: sequential %d, parallel %d", seq.CandidateUsed, par.CandidateUsed)
			}
			if seq.Found() {
				if seq.Vuln.Func != par.Vuln.Func || seq.Vuln.Kind != par.Vuln.Kind || seq.Vuln.Pos != par.Vuln.Pos {
					t.Errorf("vulnerability diverged: sequential %s in %s at %s, parallel %s in %s at %s",
						seq.Vuln.Kind, seq.Vuln.Func, seq.Vuln.Pos,
						par.Vuln.Kind, par.Vuln.Func, par.Vuln.Pos)
				}
			}
			if par.TotalPaths != seq.TotalPaths || par.TotalSteps != seq.TotalSteps {
				t.Errorf("totals diverged: sequential (%d paths, %d steps), parallel (%d paths, %d steps)",
					seq.TotalPaths, seq.TotalSteps, par.TotalPaths, par.TotalSteps)
			}
			if len(par.Candidates) != len(seq.Candidates) {
				t.Fatalf("attempted candidates: sequential %d, parallel %d",
					len(seq.Candidates), len(par.Candidates))
			}
			for i := range seq.Candidates {
				s, p := seq.Candidates[i], par.Candidates[i]
				// Elapsed and SolverTime are wall-clock and legitimately
				// differ; zero them before comparing the outcome structs
				// field-for-field.
				s.Elapsed, p.Elapsed = 0, 0
				s.SolverTime, p.SolverTime = 0, 0
				if s != p {
					t.Errorf("candidate %d outcome diverged:\n  sequential %+v\n  parallel   %+v", i+1, s, p)
				}
			}
		})
	}
}

// TestSharedCacheDeterminism: the shared solver cache is a wall-clock
// optimization only. Sequential and parallel runs, with the shared cache on
// and off, must produce identical report counters and identical per-candidate
// outcomes (Elapsed/SolverTime excepted) — the invariant that lets the cache
// default to on.
func TestSharedCacheDeterminism(t *testing.T) {
	for _, name := range []string{"polymorph", "thttpd"} {
		t.Run(name, func(t *testing.T) {
			app, err := apps.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			configs := []Config{
				{Spec: app.Spec}, // sequential, shared cache on
				{Spec: app.Spec, DisableSharedCache: true},              // sequential, off
				{Spec: app.Spec, Parallel: 4},                           // parallel, on
				{Spec: app.Spec, Parallel: 4, DisableSharedCache: true}, // parallel, off
			}
			var ref *Report
			for ci, cfg := range configs {
				rep, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = rep
					continue
				}
				if rep.Found() != ref.Found() || rep.CandidateUsed != ref.CandidateUsed {
					t.Errorf("config %d: found=%v used=%d, want found=%v used=%d",
						ci, rep.Found(), rep.CandidateUsed, ref.Found(), ref.CandidateUsed)
				}
				if rep.TotalPaths != ref.TotalPaths || rep.TotalSteps != ref.TotalSteps ||
					rep.CacheHits != ref.CacheHits || rep.CacheMisses != ref.CacheMisses {
					t.Errorf("config %d counters diverged:\n  got  paths=%d steps=%d hits=%d misses=%d\n  want paths=%d steps=%d hits=%d misses=%d",
						ci, rep.TotalPaths, rep.TotalSteps, rep.CacheHits, rep.CacheMisses,
						ref.TotalPaths, ref.TotalSteps, ref.CacheHits, ref.CacheMisses)
				}
				if len(rep.Candidates) != len(ref.Candidates) {
					t.Fatalf("config %d: %d candidates, want %d", ci, len(rep.Candidates), len(ref.Candidates))
				}
				for i := range ref.Candidates {
					a, b := ref.Candidates[i], rep.Candidates[i]
					a.Elapsed, b.Elapsed = 0, 0
					a.SolverTime, b.SolverTime = 0, 0
					if a != b {
						t.Errorf("config %d candidate %d diverged:\n  reference %+v\n  got       %+v", ci, i+1, a, b)
					}
				}
			}
		})
	}
}

// TestParallelWorkerCountInvariance: the merged report must not depend on
// the worker count (1 worker through more workers than candidates).
func TestParallelWorkerCountInvariance(t *testing.T) {
	app, err := apps.Get("thttpd") // thttpd has >1 candidate: rank 1 infeasible, rank 2 wins
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var reference *Report
	for _, workers := range []int{2, 8} {
		cfg := Config{Spec: app.Spec, Parallel: workers}
		rep, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = rep
			continue
		}
		if rep.CandidateUsed != reference.CandidateUsed ||
			rep.TotalPaths != reference.TotalPaths ||
			rep.TotalSteps != reference.TotalSteps ||
			len(rep.Candidates) != len(reference.Candidates) {
			t.Errorf("workers=%d diverged from workers=2: used %d/%d paths %d/%d steps %d/%d",
				workers, rep.CandidateUsed, reference.CandidateUsed,
				rep.TotalPaths, reference.TotalPaths, rep.TotalSteps, reference.TotalSteps)
		}
	}
}

// TestRunContextAlreadyCancelled: a dead context must still yield a
// well-formed partial report — statistical analysis present, no candidate
// attempts, Cancelled flagged — with no error.
func TestRunContextAlreadyCancelled(t *testing.T) {
	app, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	app, err := apps.Get("thttpd")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	app, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
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
