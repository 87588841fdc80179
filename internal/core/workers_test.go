package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/workload"
)

// TestParallelFrontierDifferential pins the epoch engine's pipeline-level
// determinism contract on every evaluation workload: with Workers=1 and
// Workers=4 the report's counters, per-candidate outcomes, and the
// verified vulnerable path must be identical (the engine's results depend
// on EpochWidth, never on the worker count).
func TestParallelFrontierDifferential(t *testing.T) {
	for _, name := range []string{"polymorph", "ctree", "thttpd", "grep", "msgtool"} {
		t.Run(name, func(t *testing.T) {
			app, err := apps.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var ref *Report
			for _, workers := range []int{1, 4} {
				cfg := Config{Spec: app.Spec, Workers: workers}
				rep, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = rep
					continue
				}
				if rep.Found() != ref.Found() || rep.CandidateUsed != ref.CandidateUsed {
					t.Fatalf("workers=4: found=%v used=%d, want found=%v used=%d",
						rep.Found(), rep.CandidateUsed, ref.Found(), ref.CandidateUsed)
				}
				if ref.Found() {
					if rep.Vuln.Func != ref.Vuln.Func || rep.Vuln.Kind != ref.Vuln.Kind || rep.Vuln.Pos != ref.Vuln.Pos {
						t.Errorf("vulnerability diverged: workers=1 %s in %s at %s, workers=4 %s in %s at %s",
							ref.Vuln.Kind, ref.Vuln.Func, ref.Vuln.Pos,
							rep.Vuln.Kind, rep.Vuln.Func, rep.Vuln.Pos)
					}
					if len(rep.Vuln.Path) != len(ref.Vuln.Path) {
						t.Errorf("verified path length diverged: workers=1 %d, workers=4 %d",
							len(ref.Vuln.Path), len(rep.Vuln.Path))
					} else {
						for i := range ref.Vuln.Path {
							if rep.Vuln.Path[i] != ref.Vuln.Path[i] {
								t.Errorf("verified path node %d diverged: workers=1 %s, workers=4 %s",
									i, ref.Vuln.Path[i], rep.Vuln.Path[i])
							}
						}
					}
				}
				if rep.TotalPaths != ref.TotalPaths || rep.TotalSteps != ref.TotalSteps {
					t.Errorf("totals diverged: workers=1 (%d paths, %d steps), workers=4 (%d paths, %d steps)",
						ref.TotalPaths, ref.TotalSteps, rep.TotalPaths, rep.TotalSteps)
				}
				if len(rep.Candidates) != len(ref.Candidates) {
					t.Fatalf("attempted candidates: workers=1 %d, workers=4 %d",
						len(ref.Candidates), len(rep.Candidates))
				}
				for i := range ref.Candidates {
					a, b := ref.Candidates[i], rep.Candidates[i]
					a.Elapsed, b.Elapsed = 0, 0
					a.SolverTime, b.SolverTime = 0, 0
					if a != b {
						t.Errorf("candidate %d outcome diverged:\n  workers=1 %+v\n  workers=4 %+v", i+1, a, b)
					}
				}
			}
		})
	}
}

// TestParallelFrontierComposesWithCandidates: in-candidate workers compose
// with cross-candidate parallelism — the combined mode must reproduce the
// epoch engine's sequential-verifier report exactly (effectiveWorkers
// divides the budget, and the engine is worker-count-invariant).
func TestParallelFrontierComposesWithCandidates(t *testing.T) {
	app, err := apps.Get("thttpd") // >1 candidate: rank 1 infeasible, rank 2 wins
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ref *Report
	for _, cfg := range []Config{
		{Spec: app.Spec, Workers: 2},
		{Spec: app.Spec, Workers: 2, Parallel: 2},
		{Spec: app.Spec, Workers: 4, Parallel: 2},
	} {
		rep, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if rep.Found() != ref.Found() || rep.CandidateUsed != ref.CandidateUsed ||
			rep.TotalPaths != ref.TotalPaths || rep.TotalSteps != ref.TotalSteps {
			t.Errorf("workers=%d parallel=%d diverged: found=%v used=%d paths=%d steps=%d, want found=%v used=%d paths=%d steps=%d",
				cfg.Workers, cfg.Parallel, rep.Found(), rep.CandidateUsed, rep.TotalPaths, rep.TotalSteps,
				ref.Found(), ref.CandidateUsed, ref.TotalPaths, ref.TotalSteps)
		}
		if len(rep.Candidates) != len(ref.Candidates) {
			t.Fatalf("workers=%d parallel=%d: %d candidates, want %d",
				cfg.Workers, cfg.Parallel, len(rep.Candidates), len(ref.Candidates))
		}
		for i := range ref.Candidates {
			a, b := ref.Candidates[i], rep.Candidates[i]
			a.Elapsed, b.Elapsed = 0, 0
			a.SolverTime, b.SolverTime = 0, 0
			if a != b {
				t.Errorf("workers=%d parallel=%d candidate %d diverged:\n  reference %+v\n  got       %+v",
					cfg.Workers, cfg.Parallel, i+1, a, b)
			}
		}
	}
}
