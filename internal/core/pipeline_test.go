package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/workload"
)

// runPipeline executes the StatSym pipeline on an app at 30% sampling.
func runPipeline(t *testing.T, name string, cfg Config) *Report {
	t.Helper()
	app, corpus := appCorpus(t, name)
	if cfg.Spec == nil {
		cfg.Spec = app.Spec
	}
	rep, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkVuln validates a report's vulnerability against the app's known
// fault and replays the witness concretely.
func checkVuln(t *testing.T, name string, rep *Report) {
	t.Helper()
	app, _ := apps.Get(name)
	if !rep.Found() {
		t.Fatalf("%s: vulnerable path not found; candidates: %+v", name, rep.Candidates)
	}
	v := rep.Vuln
	if v.Func != app.VulnFunc || v.Kind != app.VulnKind {
		t.Errorf("%s: found %s in %s, want %s in %s", name, v.Kind, v.Func, app.VulnKind, app.VulnFunc)
	}
	if v.Witness == nil {
		t.Fatalf("%s: no witness", name)
	}
	res, err := interp.Run(app.Program(), v.Witness, interp.Config{})
	if err != nil {
		t.Fatalf("%s: witness replay error: %v", name, err)
	}
	if !res.Faulty() || res.FaultFunc != app.VulnFunc {
		t.Errorf("%s: witness replay gave fault=%v in %q, want %v in %q",
			name, res.Fault, res.FaultFunc, app.VulnKind, app.VulnFunc)
	}
	// The discovered path must end at (or contain) the fault function's
	// entry.
	hasFault := false
	for _, loc := range v.Path {
		if loc.Func == app.VulnFunc {
			hasFault = true
		}
	}
	if !hasFault {
		t.Errorf("%s: vulnerable path misses the fault function: %v", name, v.Path)
	}
}

func TestPipelinePolymorph(t *testing.T) {
	rep := runPipeline(t, "polymorph", Config{})
	checkVuln(t, "polymorph", rep)
	if rep.TotalPaths > 100 {
		t.Errorf("guided search explored %d paths; expected a small number", rep.TotalPaths)
	}
}

func TestPipelineCTree(t *testing.T) {
	rep := runPipeline(t, "ctree", Config{})
	checkVuln(t, "ctree", rep)
}

func TestPipelineThttpd(t *testing.T) {
	rep := runPipeline(t, "thttpd", Config{})
	checkVuln(t, "thttpd", rep)
	// The witness request must overflow the 1000-byte defang buffer once
	// '<' and '>' expand to 4-byte entities: plain bytes + 4x angles must
	// reach the capacity.
	req := rep.Vuln.Witness.Strs["request"]
	expanded := 0
	for i := 0; i < len(req); i++ {
		if req[i] == '<' || req[i] == '>' {
			expanded += 4
		} else {
			expanded++
		}
	}
	if expanded < 1000 {
		t.Errorf("witness expands to %d bytes (< 1000): request %d bytes", expanded, len(req))
	}
}

func TestPipelineGrep(t *testing.T) {
	rep := runPipeline(t, "grep", Config{})
	checkVuln(t, "grep", rep)
	if n := len(rep.Vuln.Witness.Env["STONESOUP_TAINT_SOURCE"]); n < 128 {
		t.Errorf("witness taint only %d bytes", n)
	}
}

func TestPureBaselineTable4Shape(t *testing.T) {
	// Pure symbolic execution succeeds on polymorph and exhausts its
	// state budget on the other three (Table IV).
	for _, name := range []string{"polymorph", "ctree", "thttpd", "grep"} {
		app, _ := apps.Get(name)
		res := RunPureContext(context.Background(), app.Program(), app.Spec, 10_000, 5_000_000, 30*time.Second)
		if app.PureFails {
			if res.Found() {
				t.Errorf("%s: pure symbolic execution unexpectedly succeeded", name)
			}
			if !res.Exhausted && !res.StepLimited && !res.TimedOut {
				t.Errorf("%s: pure run neither found nor failed: %+v", name, res)
			}
		} else if !res.Found() {
			t.Errorf("%s: pure symbolic execution failed (exhausted=%v): %+v",
				name, res.Exhausted, res)
		}
	}
}

func TestPipelineReportFields(t *testing.T) {
	rep := runPipeline(t, "polymorph", Config{})
	if rep.Runs != 200 {
		t.Errorf("runs = %d, want 200", rep.Runs)
	}
	if rep.Locations == 0 || rep.Variables == 0 || rep.LogBytes == 0 {
		t.Errorf("empty corpus stats: %+v", rep)
	}
	if rep.StatTime <= 0 {
		t.Errorf("stat time not measured")
	}
	if len(rep.PathRes.Candidates) == 0 {
		t.Errorf("no candidates in report")
	}
	if rep.CandidateUsed < 1 || rep.CandidateUsed > len(rep.PathRes.Candidates) {
		t.Errorf("candidate used = %d of %d", rep.CandidateUsed, len(rep.PathRes.Candidates))
	}
	if rep.Detours() < 0 {
		t.Errorf("negative detours")
	}
}

func TestPipelineLowSampling(t *testing.T) {
	// The paper's claim: effective even at 20% sampling.
	app, _ := apps.Get("polymorph")
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	checkVuln(t, "polymorph", rep)
}

func TestPipelineSeedsStability(t *testing.T) {
	// Different workload seeds must not break discovery.
	for _, seed := range []int64{2, 7, 13} {
		app, _ := apps.Get("ctree")
		corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Found() {
			t.Errorf("seed %d: not found", seed)
		}
	}
}

func TestAblationConfigsStillFind(t *testing.T) {
	// Disabling either guidance mechanism must not break discovery on
	// polymorph (it degrades efficiency, not capability).
	for _, cfg := range []Config{
		{DisablePredicates: true},
		{DisableInter: true},
		{DisableInter: true, DisablePredicates: true},
	} {
		rep := runPipeline(t, "polymorph", cfg)
		if !rep.Found() {
			t.Errorf("config %+v: not found", cfg)
		}
	}
}

func TestGuidedBeatsPureOnPaths(t *testing.T) {
	rep := runPipeline(t, "polymorph", Config{})
	if !rep.Found() {
		t.Fatal("guided search failed")
	}
	app, _ := apps.Get("polymorph")
	pure := RunPureContext(context.Background(), app.Program(), app.Spec, 20_000, 20_000_000, time.Minute)
	if !pure.Found() {
		t.Fatal("pure baseline failed on polymorph")
	}
	if rep.TotalPaths*10 > pure.Paths {
		t.Errorf("guided explored %d paths vs pure %d; expected at least 10x reduction",
			rep.TotalPaths, pure.Paths)
	}
}

// TestScopePolicyInvalidSpec: an invalid scope spec surfaces as a pipeline
// error. That a valid scope havocking only functions off the vulnerable
// path keeps the detection digest is the OffPathHavoc engine contract.
func TestScopePolicyInvalidSpec(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	_, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, Scope: "all,bogusmix"})
	if err == nil {
		t.Fatal("invalid scope spec should fail the pipeline")
	}
}
