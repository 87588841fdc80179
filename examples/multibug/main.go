// Multi-vulnerability discovery (the §III-C extension of the paper).
//
// msgtool contains two distinct buffer overflows in different functions,
// triggered by different inputs (encode-mode titles vs decode-mode
// bodies). The extension clusters the faulty logs by fault signature and
// runs the StatSym pipeline once per cluster, identifying each vulnerable
// path in turn — "one-by-one through an iterative process until all
// vulnerabilities and paths are identified".
//
// Run with: go run ./examples/multibug
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/workload"
)

func main() {
	app, err := apps.Get("msgtool")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s: %s\n\n", app.Name, app.Description)

	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	multi, err := core.RunMulti(context.Background(), app.Program(), corpus, core.Config{Spec: app.Spec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faulty logs form %d clusters:\n", len(multi.Clusters))
	for i, cl := range multi.Clusters {
		fmt.Printf("  cluster %d: %s in %s (%d runs)\n", i+1, cl.FaultKind, cl.FaultFunc, cl.Runs)
	}
	fmt.Println()

	for i, rep := range multi.Reports {
		cl := multi.Clusters[i]
		if !rep.Found() {
			fmt.Printf("cluster %d (%s): vulnerable path NOT found\n", i+1, cl.FaultFunc)
			continue
		}
		fmt.Printf("cluster %d: found %s in %s (%d paths, %v)\n",
			i+1, rep.Vuln.Kind, rep.Vuln.Func, rep.TotalPaths,
			(rep.StatTime + rep.SymTime).Round(time.Millisecond))

		// Replay each witness: it must reproduce its own cluster's fault.
		res, err := interp.Run(app.Program(), rep.Vuln.Witness, interp.Config{})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Faulty() || res.FaultFunc != cl.FaultFunc {
			log.Fatalf("cluster %d witness reproduced %s in %s, want fault in %s",
				i+1, res.Fault, res.FaultFunc, cl.FaultFunc)
		}
		fmt.Printf("  witness replay: crash in %s reproduced (mode %q)\n",
			res.FaultFunc, rep.Vuln.Witness.Args[0])
	}
	if multi.Found() != 2 {
		log.Fatalf("expected both vulnerabilities, found %d", multi.Found())
	}
	fmt.Println("\nboth vulnerabilities identified and reproduced.")
}
