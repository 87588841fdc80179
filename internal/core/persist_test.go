package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/pathid"
	"repro/internal/solver/persist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestStatsCacheFallbacks pins the memoized stats phase's degradation
// modes: a corrupted artifact falls back to derivation (digest intact), a
// different corpus misses (content-keyed, not provenance-keyed), and
// NeedGraph bypasses the memo so the transition graph is always built.
func TestStatsCacheFallbacks(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	dir := t.TempDir()
	cold, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	refDigest := DetectionDigest(cold)
	memo := filepath.Join(dir, "statscache.json")
	if _, err := os.Stat(memo); err != nil {
		t.Fatalf("cold run left no stats memo: %v", err)
	}

	// Corrupt the artifact: the warm run must derive instead of replay.
	if err := os.WriteFile(memo, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	warm, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warm.StatsCached {
		t.Error("corrupt stats memo was replayed")
	}
	if DetectionDigest(warm) != refDigest {
		t.Error("digest diverged after stats-memo corruption")
	}

	// A different corpus (different seed) must miss on content.
	other, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runCorpus(context.Background(), app.Program(), other, Config{Spec: app.Spec, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsCached {
		t.Error("stats memo for a different corpus was replayed")
	}

	// NeedGraph: warm run with a matching memo still derives, and carries
	// the graph the memo cannot.
	if _, err := runCorpus(context.Background(), app.Program(), other, Config{Spec: app.Spec, CacheDir: dir}); err != nil {
		t.Fatal(err) // reseed the memo for `other`
	}
	gr, err := runCorpus(context.Background(), app.Program(), other, Config{Spec: app.Spec, CacheDir: dir, NeedGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if gr.StatsCached {
		t.Error("NeedGraph run replayed the memo")
	}
	if gr.PathRes.Graph == nil {
		t.Error("NeedGraph run carries no transition graph")
	}
}

// TestPersistIncrementalNoChanges: with -incremental semantics and an
// unchanged program, the plan reports no changes and the run is a full
// warm run — nothing skipped, digest intact.
func TestPersistIncrementalNoChanges(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	dir := t.TempDir()

	plan, err := PlanIncremental(dir, app.Program())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Fresh {
		t.Fatal("plan against an empty dir is not fresh")
	}

	cold, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	plan, err = PlanIncremental(dir, app.Program())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fresh || plan.Diff.HasChanges() {
		t.Fatalf("unchanged program diffed as changed: %+v", plan.Diff)
	}

	warm, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, CacheDir: dir, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.SkippedCandidates != 0 {
		t.Fatalf("incremental run skipped %d candidates with no changes", warm.SkippedCandidates)
	}
	if DetectionDigest(warm) != DetectionDigest(cold) {
		t.Error("incremental warm digest diverged from cold")
	}
}

// TestPlanIncrementalForeignProgram: pointing -incremental at a store
// filled by a different program is a hard error, not a silent cold start —
// mixing programs in one store would poison its manifest.
func TestPlanIncrementalForeignProgram(t *testing.T) {
	appA, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	appB, err := apps.Get("grep")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := persist.Create(dir, appA.Program().Name); err != nil {
		t.Fatal(err)
	}
	if _, err := PlanIncremental(dir, appB.Program()); err == nil {
		t.Fatal("foreign-program store accepted")
	}
}

// TestFilterCandidatesByDirty: only candidates whose path crosses a dirty
// function are kept for re-analysis; the rest are counted, not silently
// dropped.
func TestFilterCandidatesByDirty(t *testing.T) {
	mk := func(fns ...string) *pathid.CandidatePath {
		c := &pathid.CandidatePath{}
		for _, fn := range fns {
			c.Nodes = append(c.Nodes, pathid.PathNode{Loc: trace.Location{Func: fn}})
		}
		return c
	}
	cands := []*pathid.CandidatePath{
		mk("main", "parse"),
		mk("main", "render"),
		mk("parse", "emit"),
	}
	kept, skipped := filterCandidatesByDirty(cands, []string{"parse"})
	if len(kept) != 2 || skipped != 1 {
		t.Fatalf("kept %d / skipped %d, want 2 / 1", len(kept), skipped)
	}
	for _, c := range kept {
		if !candidateCrosses(c, map[string]bool{"parse": true}) {
			t.Fatalf("kept candidate %v does not cross parse", c)
		}
	}
	// An empty dirty set (e.g. only removals) keeps everything: skipping
	// must be justified by a positive "this path is unaffected" match.
	kept, skipped = filterCandidatesByDirty(cands, nil)
	if len(kept) != 3 || skipped != 0 {
		t.Fatalf("empty dirty set: kept %d / skipped %d, want 3 / 0", len(kept), skipped)
	}
}
