package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	corpusstore "repro/internal/corpus"
	"repro/internal/workload"
)

// TestStorePipelineDifferential pins the store-backed pipeline against the
// in-memory one end to end: collect the same corpus both ways (in memory
// and spilled to a segmented store), run RunJob over each source,
// and require identical reports — statistics, candidate outcomes, and the
// verified vulnerable path — modulo wall-clock fields. Two apps cover the
// found (polymorph) and first-candidate-infeasible (thttpd) shapes; the
// five-app statistical differential lives in internal/corpus.
func TestStorePipelineDifferential(t *testing.T) {
	for _, name := range []string{"polymorph", "thttpd"} {
		t.Run(name, func(t *testing.T) {
			app, err := apps.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := workload.Options{SampleRate: 0.3, Seed: 1}
			corpus, err := workload.BuildCorpus(app, opts)
			if err != nil {
				t.Fatal(err)
			}
			store, err := corpusstore.Create(t.TempDir(), app.Name)
			if err != nil {
				t.Fatal(err)
			}
			// Tiny segments so the streaming path crosses real block and
			// segment boundaries, not one big buffer.
			wopts := corpusstore.Options{BlockBytes: 4 << 10, SegmentBytes: 32 << 10}
			if err := workload.BuildCorpusStoreCtx(t.Context(), app, opts, store, wopts); err != nil {
				t.Fatal(err)
			}
			if store.TotalRuns() != len(corpus.Runs) {
				t.Fatalf("store holds %d runs, in-memory corpus %d", store.TotalRuns(), len(corpus.Runs))
			}

			cfg := Config{Spec: app.Spec}
			ref, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunJob(context.Background(), JobInputs{Prog: app.Program(), Spec: cfg.Spec, Store: store}, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if rep.Runs != ref.Runs || rep.Locations != ref.Locations || rep.Variables != ref.Variables {
				t.Errorf("corpus stats diverged: store (%d,%d,%d), memory (%d,%d,%d)",
					rep.Runs, rep.Locations, rep.Variables, ref.Runs, ref.Locations, ref.Variables)
			}
			if len(rep.Analysis.Predicates) != len(ref.Analysis.Predicates) {
				t.Fatalf("predicate count: store %d, memory %d",
					len(rep.Analysis.Predicates), len(ref.Analysis.Predicates))
			}
			for i, p := range ref.Analysis.Predicates {
				q := rep.Analysis.Predicates[i]
				if *q != *p {
					t.Errorf("predicate %d diverged:\n  store  %+v\n  memory %+v", i, *q, *p)
				}
			}
			if rep.Found() != ref.Found() || rep.CandidateUsed != ref.CandidateUsed {
				t.Fatalf("store: found=%v used=%d, memory: found=%v used=%d",
					rep.Found(), rep.CandidateUsed, ref.Found(), ref.CandidateUsed)
			}
			if ref.Found() {
				if rep.Vuln.Func != ref.Vuln.Func || rep.Vuln.Kind != ref.Vuln.Kind || rep.Vuln.Pos != ref.Vuln.Pos {
					t.Errorf("vulnerability diverged: store %s in %s at %s, memory %s in %s at %s",
						rep.Vuln.Kind, rep.Vuln.Func, rep.Vuln.Pos,
						ref.Vuln.Kind, ref.Vuln.Func, ref.Vuln.Pos)
				}
			}
			if rep.TotalPaths != ref.TotalPaths || rep.TotalSteps != ref.TotalSteps {
				t.Errorf("totals diverged: store (%d paths, %d steps), memory (%d paths, %d steps)",
					rep.TotalPaths, rep.TotalSteps, ref.TotalPaths, ref.TotalSteps)
			}
			if len(rep.Candidates) != len(ref.Candidates) {
				t.Fatalf("attempted candidates: store %d, memory %d", len(rep.Candidates), len(ref.Candidates))
			}
			for i := range ref.Candidates {
				a, b := ref.Candidates[i], rep.Candidates[i]
				a.Elapsed, b.Elapsed = 0, 0
				a.SolverTime, b.SolverTime = 0, 0
				if a != b {
					t.Errorf("candidate %d outcome diverged:\n  memory %+v\n  store  %+v", i+1, a, b)
				}
			}
		})
	}
}
