// Polymorph case study (§VII-C1 of the paper).
//
// Reproduces the full StatSym pipeline on the Bugbench polymorph port:
// collect 100 correct + 100 faulty sampled logs, construct and rank
// predicates (Table V), build candidate vulnerable paths (Fig. 9), run
// statistics-guided symbolic execution, and compare against the pure
// KLEE-style baseline (the polymorph rows of Table IV).
//
// Run with: go run ./examples/polymorph
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	app, err := apps.Get("polymorph")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s: %s\n\n", app.Name, app.Description)

	// Step 1: emulate user runs and collect partially-sampled logs.
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	runs, locs, vars := corpus.Counts()
	fmt.Printf("collected %d runs over %d locations / %d variables at 30%% sampling\n\n",
		runs, locs, vars)

	// Step 2+3: statistical analysis and guided symbolic execution.
	rep, err := core.RunJob(context.Background(), core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("top 10 predicates (Table V):")
	for i, p := range rep.Analysis.Top(10) {
		fmt.Printf("  P%-2d %-48s @ %s\n", i+1, p.String(), p.Loc)
	}
	fmt.Println("\ncandidate vulnerable paths (Fig. 9):")
	for i, cand := range rep.PathRes.Candidates {
		fmt.Printf("  %d. (avg score %.3f) %s\n", i+1, cand.AvgScore, cand)
	}

	if !rep.Found() {
		log.Fatal("StatSym did not find the vulnerable path")
	}
	fmt.Printf("\nStatSym: found %s in %s — %d paths explored, %v total\n",
		rep.Vuln.Kind, rep.Vuln.Func, rep.TotalPaths,
		(rep.StatTime + rep.SymTime).Round(time.Millisecond))
	name := rep.Vuln.Witness.Args[2]
	fmt.Printf("witness: polymorph -h -f <%d-byte name> (buffer is 512 bytes)\n\n", len(name))

	// Step 4: the pure baseline for comparison.
	pure := core.RunPureContext(context.Background(), app.Program(), app.Spec, 20_000, 20_000_000, 2*time.Minute)
	if pure.Found() {
		fmt.Printf("pure symbolic execution: found after %d paths, %v\n",
			pure.Paths, pure.Elapsed.Round(time.Millisecond))
		speedup := float64(pure.Elapsed) / float64(rep.StatTime+rep.SymTime)
		fmt.Printf("speedup from statistical guidance: %.1fx (paths: %d -> %d)\n",
			speedup, pure.Paths, rep.TotalPaths)
	} else {
		fmt.Println("pure symbolic execution failed within budget")
	}
}
