package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func keys(jobs []Job) []string {
	var ks []string
	for _, j := range jobs {
		ks = append(ks, j.Key)
	}
	return ks
}

// TestJobListDependsOnSeedAlone pins the generator's contract: the same
// seed gives the same list, another seed another order, and every pass
// holds each pool job exactly once — the generator never runs a job, so
// nothing about a job's outcome can drop it from the list.
func TestJobListDependsOnSeedAlone(t *testing.T) {
	for _, w := range workloads() {
		const passes = 3
		a := w.jobList(7, passes)
		if !reflect.DeepEqual(a, w.jobList(7, passes)) {
			t.Errorf("%s: two lists for seed 7 differ", w.Name)
		}
		if reflect.DeepEqual(keys(a), keys(w.jobList(8, passes))) {
			t.Errorf("%s: seeds 7 and 8 give the same order", w.Name)
		}
		if !reflect.DeepEqual(a[:len(a)/passes], w.jobList(7, 1)) {
			t.Errorf("%s: the first pass depends on the pass count", w.Name)
		}
		var pool []string
		for _, j := range w.Pool {
			pool = append(pool, j.Key)
		}
		sort.Strings(pool)
		var jobs []Job
		ingests := 0
		for i, j := range a {
			if j.Seq != i {
				t.Fatalf("%s: job %d has Seq %d", w.Name, i, j.Seq)
			}
			if j.Ingest {
				ingests++
				continue
			}
			jobs = append(jobs, j)
		}
		for p := 0; p < passes; p++ {
			got := keys(jobs[p*len(w.Pool) : (p+1)*len(w.Pool)])
			sort.Strings(got)
			if !reflect.DeepEqual(got, pool) {
				t.Errorf("%s: pass %d is not the pool: %v", w.Name, p, got)
			}
		}
		wantIngests := 0
		if w.Name == "service-triage" {
			wantIngests = len(jobs) / ingestEvery
		}
		if ingests != wantIngests {
			t.Errorf("%s: %d ingest batches, want %d", w.Name, ingests, wantIngests)
		}
	}
}

func TestServiceTriageMix(t *testing.T) {
	w := serviceTriage()
	engine, named, apps := map[string]int{}, map[string]int{}, map[string]int{}
	for _, j := range w.Pool {
		engine[j.Engine]++
		apps[j.App]++
		if j.Named {
			named[j.Engine]++
		}
	}
	if len(w.Pool) != 40 || len(apps) != 5 {
		t.Fatalf("pool has %d jobs over %d apps, want 40 over 5", len(w.Pool), len(apps))
	}
	total := 0
	for _, e := range engines {
		if engine[e] != 10 || named[e] == 0 {
			t.Errorf("engine %s: %d jobs, %d on named corpora", e, engine[e], named[e])
		}
		total += named[e]
	}
	if total != 10 {
		t.Errorf("%d jobs read named corpora, want a quarter (10)", total)
	}
}

func TestPassesRoundToWholePasses(t *testing.T) {
	w := &Workload{NominalS: 2}
	for _, c := range []struct {
		seconds     float64
		least, want int
	}{{20, 2, 10}, {1, 2, 2}, {5, 1, 3}, {0, 1, 1}} {
		if got := w.passes(c.seconds, c.least); got != c.want {
			t.Errorf("passes(%v, %d) = %d, want %d", c.seconds, c.least, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, ms []metric) {
		if len(listed) != len(ms) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(ms))
			return
		}
		for i, m := range ms {
			if listed[i].Name != m.Name || listed[i].Unit != m.Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd{}.metrics())
	same("per_layer", spec.PerLayer, newLayers().metrics())
}
