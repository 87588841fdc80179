// Web-server case study (§VII-C2 of the paper): thttpd's defang overflow.
//
// Demonstrates the scenario the paper leads with: a server-class program
// whose request-parsing loops defeat pure symbolic execution (state
// explosion — "Failed" in Table IV), while StatSym's candidate path and
// the len(str) predicate steer the executor to the defang buffer overflow
// and emit a concrete exploit request.
//
// Run with: go run ./examples/webserver
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	app, err := apps.Get("thttpd")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s: %s\n\n", app.Name, app.Description)

	// Pure symbolic execution first: it must drown in the per-character
	// request-scanning forks.
	fmt.Println("-- pure symbolic execution (KLEE baseline)")
	pure := core.RunPureContext(context.Background(), app.Program(), app.Spec, 20_000, 5_000_000, 60*time.Second)
	if pure.Found() {
		fmt.Printf("   unexpectedly found the bug after %d paths\n", pure.Paths)
	} else {
		reason := "budget exhausted"
		if pure.Exhausted {
			reason = "state space exploded (out of memory)"
		}
		fmt.Printf("   FAILED: %s after %d paths / %d live states\n\n",
			reason, pure.Paths, pure.MaxLive)
	}

	// StatSym: logs → predicates → candidate path → guided search.
	fmt.Println("-- StatSym")
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.RunJob(context.Background(), core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   statistical analysis: %v (%d detours, %d candidate paths)\n",
		rep.StatTime.Round(time.Millisecond), rep.Detours(), len(rep.PathRes.Candidates))
	if !rep.Found() {
		log.Fatal("StatSym did not find the vulnerable path")
	}
	faultEnter := trace.Location{Func: rep.Vuln.Func, Kind: trace.EventEnter}
	if p := rep.Analysis.BestAt(faultEnter); p != nil {
		fmt.Printf("   gating predicate at the fault site: %s\n", p)
	}
	fmt.Printf("   guided symbolic execution: %v, %d paths (candidate %d of %d)\n",
		rep.SymTime.Round(time.Millisecond), rep.TotalPaths,
		rep.CandidateUsed, len(rep.PathRes.Candidates))
	fmt.Printf("   vulnerable path: %s ... %s (%d locations)\n",
		rep.Vuln.Path[0], rep.Vuln.Path[len(rep.Vuln.Path)-1], len(rep.Vuln.Path))

	// The witness is a concrete HTTP request; replay it.
	req := rep.Vuln.Witness.Strs["request"]
	fmt.Printf("   exploit request: %d bytes (%q...)\n", len(req), head(req, 24))
	res, err := interp.Run(app.Program(), rep.Vuln.Witness, interp.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Faulty() {
		log.Fatal("witness did not crash the server")
	}
	fmt.Printf("   replay: %s in %s — server crash reproduced\n", res.Fault, res.FaultFunc)
}

func head(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
