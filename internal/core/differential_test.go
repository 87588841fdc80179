package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/workload"
)

// TestSummarizeDifferential pins the compositional differential contract on
// every evaluation workload: with a full-coverage scope policy, summarize
// mode must produce a byte-identical detection digest to full
// interpretation — replacing interpreted calls by memoized summaries (and
// serving them from the shared cache across candidate attempts) changes how
// much work detection takes, never what is detected.
func TestSummarizeDifferential(t *testing.T) {
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
			ref, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
			if err != nil {
				t.Fatal(err)
			}
			got, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, Summaries: true})
			if err != nil {
				t.Fatal(err)
			}
			if rd, gd := DetectionDigest(ref), DetectionDigest(got); rd != gd {
				t.Errorf("detection digests diverged:\n--- interpret ---\n%s--- summarize ---\n%s", rd, gd)
			}
			// The digest is the contract: same detection, same site, same
			// per-candidate outcomes. The faulting trace itself may differ
			// in intermediate hops (summaries change effort, not findings);
			// witness validity is already enforced by VerifyCandidateCtx's
			// concrete replay.
			if ref.Found() && (got.Vuln == nil || got.Vuln.Witness == nil) {
				t.Error("summarize run found the vuln but carries no witness")
			}
		})
	}
}

// TestScopePolicyDigestStable: a havoc scope that excludes only functions
// irrelevant to the vulnerable path must leave the detection digest intact,
// while an invalid scope spec surfaces as a pipeline error.
func TestScopePolicyInvalidSpec(t *testing.T) {
	app, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, Scope: "all,bogusmix"})
	if err == nil {
		t.Fatal("invalid scope spec should fail the pipeline")
	}
}

// TestSummaryCacheSharedRace exercises the shared summary cache from
// concurrent pipeline runs and, within each run, concurrent candidate
// attempts and frontier workers (Parallel×Workers). Run under -race in CI:
// the cache is the only mutable state shared across executors in summarize
// mode.
func TestSummaryCacheSharedRace(t *testing.T) {
	app, err := apps.Get("grep")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	refDigest := DetectionDigest(ref)

	var wg sync.WaitGroup
	digests := make([]string, 4)
	errs := make([]error, 4)
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Spec: app.Spec, Summaries: true, Parallel: 2, Workers: 2}
			rep, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			digests[i] = DetectionDigest(rep)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if digests[i] != refDigest {
			t.Errorf("run %d digest diverged:\n--- interpret ---\n%s--- summarize ---\n%s",
				i, refDigest, digests[i])
		}
	}
}
