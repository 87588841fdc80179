package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/symexec"
	"repro/internal/workload"
)

func TestRunMultiMsgtool(t *testing.T) {
	app, err := apps.Get("msgtool")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2: %+v", len(multi.Clusters), multi.Clusters)
	}
	if multi.Found() != 2 {
		t.Fatalf("found %d of 2 vulnerabilities", multi.Found())
	}
	// Each discovered vulnerability sits in its own cluster's function and
	// its witness reproduces that exact fault.
	seen := map[string]bool{}
	for i, rep := range multi.Reports {
		cl := multi.Clusters[i]
		if rep.Vuln.Func != cl.FaultFunc {
			t.Errorf("cluster %d: vuln in %s, cluster is %s", i, rep.Vuln.Func, cl.FaultFunc)
		}
		seen[rep.Vuln.Func] = true
		res, err := interp.Run(app.Program(), rep.Vuln.Witness, interp.Config{})
		if err != nil || !res.Faulty() || res.FaultFunc != cl.FaultFunc {
			t.Errorf("cluster %d: witness replay fault=%v in %q err=%v",
				i, res.Fault, res.FaultFunc, err)
		}
	}
	if !seen["pack_header"] || !seen["unpack_payload"] {
		t.Errorf("did not isolate both bugs: %v", seen)
	}
}

func TestRunMultiSingleBugDegeneratesToRun(t *testing.T) {
	app, _ := apps.Get("polymorph")
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Clusters) != 1 {
		t.Fatalf("single-bug program produced %d clusters", len(multi.Clusters))
	}
	if multi.Found() != 1 {
		t.Errorf("found = %d", multi.Found())
	}
	if multi.Clusters[0].FaultFunc != "convert_fileName" {
		t.Errorf("cluster = %+v", multi.Clusters[0])
	}
}

func TestBillingIntegerPredicates(t *testing.T) {
	// The billing app's defect is gated by an integer threshold, not a
	// string length: the pipeline must construct integer predicates and
	// use them.
	app, err := apps.Get("billing")
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
	if !rep.Found() {
		t.Fatal("billing assertion failure not found")
	}
	if rep.Vuln.Func != "apply_discount" || rep.Vuln.Kind != interp.FaultAssert {
		t.Errorf("vuln = %s", rep.Vuln.Site())
	}
	// The top predicate is an integer (non-string) threshold at the fault
	// site on the discount percentage.
	top := rep.Analysis.Top(1)[0]
	if top.IsString {
		t.Errorf("top predicate is string-based: %s", top)
	}
	if top.Var != "percent" || top.Loc.Func != "apply_discount" {
		t.Errorf("top predicate = %s @ %s", top, top.Loc)
	}
	// The witness discount must be in the failing range (>= 91 given the
	// 10x-assertion in the source).
	w := rep.Vuln.Witness
	if w.Ints["discount"] < 88 {
		t.Errorf("witness discount = %d, want the failing range", w.Ints["discount"])
	}
	res, err := interp.Run(app.Program(), w, interp.Config{})
	if err != nil || !res.Faulty() || res.FaultFunc != "apply_discount" {
		t.Errorf("witness replay: %v / %+v", err, res)
	}
}

func TestBillingDivZeroViaSymbolicBuckets(t *testing.T) {
	// With buckets symbolic instead of concretized, the division-by-zero
	// oracle fires in split_tax; exploring past the first find surfaces
	// both defect kinds.
	app, _ := apps.Get("billing")
	spec := *app.Spec
	spec.ConcreteInts = nil // make buckets symbolic
	opts := symexec.DefaultOptions()
	opts.StopAtFirstVuln = false
	opts.MaxSteps = 5_000_000
	ex := symexec.New(app.Program(), &spec, opts)
	res := ex.Run()
	kinds := map[interp.FaultKind]bool{}
	funcs := map[string]bool{}
	for _, v := range res.Vulns {
		kinds[v.Kind] = true
		funcs[v.Func] = true
	}
	if !kinds[interp.FaultAssert] || !funcs["apply_discount"] {
		t.Errorf("assertion defect missing: %v / %v", kinds, funcs)
	}
	if !kinds[interp.FaultDivZero] || !funcs["split_tax"] {
		t.Errorf("division-by-zero defect missing: %v / %v", kinds, funcs)
	}
}
