package main

import (
	"fmt"
	"math"
	"math/rand"
)

// Job is one operation of a workload's closed loop. Jobs with the same Key
// analyze the same inputs with the same settings, so their outcomes and
// step counts must agree.
type Job struct {
	Seq  int    // position in the job list
	Pass int    // pass over the pool the job belongs to
	Key  string // identity of the job's inputs and settings
	App  string
	Seed int64   // corpus seed (guided-deep, and service-triage corpora)
	Rate float64 // monitor sampling rate of the job's corpus

	// service-triage only.
	Engine string // sequential | parallel | epoch | dispatch
	Named  bool   // reads a named corpus ingested during set-up
	Ingest bool   // an NDJSON ingest batch into a fresh corpus, not a job
}

// Workload describes one benchmark workload: its fixed job pool, whose
// every member runs once per pass, and the nominal duration of one pass
// on the reference host (see README.md), which turns --seconds into a
// whole number of passes.
type Workload struct {
	Name     string
	Pool     []Job
	NominalS float64 // seconds per pass on the reference host
	// MinPasses is the fewest passes an untraced run measures. Every job
	// runs at least twice, so the repeat check sees each one again.
	MinPasses int
}

// engines are the candidate-verification engines of service-triage jobs;
// Job.spec sets the job-spec field that selects each.
var engines = []string{"sequential", "parallel", "epoch", "dispatch"}

// serviceApps are the service-triage programs, analyzed at each rate.
var (
	serviceApps  = []string{"polymorph", "ctree", "grep", "msgtool", "billing"}
	serviceRates = []float64{0.3, 1.0}
)

// Corpus seeds: guided-deep analyzes thttpd corpora 1..guidedPool;
// service-triage collects on-demand corpora with seed 1 and ingests its
// named corpora from seed 2.
const (
	guidedPool       = 10
	guidedStepBudget = 60_000
	onDemandSeed     = 1
	namedSeed        = 2
	ingestEvery      = 10 // service-triage: one ingest batch after every 10 jobs
)

func workloads() []*Workload {
	return []*Workload{guidedDeep(), pureBreadth(), serviceTriage()}
}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have guided-deep, pure-breadth, service-triage)", name)
}

func guidedDeep() *Workload {
	w := &Workload{
		Name:      "guided-deep",
		NominalS:  21.5,
		MinPasses: 2,
	}
	for s := int64(1); s <= guidedPool; s++ {
		w.Pool = append(w.Pool, Job{Key: fmt.Sprintf("thttpd/seed%d", s), App: "thttpd", Seed: s, Rate: 0.3})
	}
	return w
}

func pureBreadth() *Workload {
	w := &Workload{
		Name:      "pure-breadth",
		NominalS:  2.2,
		MinPasses: 2,
	}
	for _, app := range []string{"polymorph", "ctree", "thttpd", "grep"} {
		w.Pool = append(w.Pool, Job{Key: app, App: app})
	}
	return w
}

// serviceTriage's pass is every app at every rate on every engine (40
// jobs). A quarter read named corpora: the 0.3-rate jobs whose app and
// engine indices have an even sum, so every engine and every app has some.
// Four ingest batches, one per ten jobs, ride along.
func serviceTriage() *Workload {
	w := &Workload{
		Name:     "service-triage",
		NominalS: 1.9,
		// Its two clients and two runners keep both vCPUs busy, so its
		// throughput follows the host's load from second to second (per-pass
		// rates within one run spread over ±15%); the per-pass medians
		// need about 16 passes to settle.
		MinPasses: 16,
	}
	for e, engine := range engines {
		for r, rate := range serviceRates {
			for a, app := range serviceApps {
				named := r == 0 && (a+e)%2 == 0
				seed := int64(onDemandSeed)
				src := "collect"
				if named {
					seed, src = namedSeed, "named"
				}
				w.Pool = append(w.Pool, Job{
					Key: fmt.Sprintf("%s/r%.1f/%s/%s", app, rate, engine, src),
					App: app, Seed: seed, Rate: rate, Engine: engine, Named: named,
				})
			}
		}
	}
	return w
}

// passes turns a measuring time into a whole number of passes over the
// pool, at least least.
func (w *Workload) passes(seconds float64, least int) int {
	return max(least, int(math.Round(seconds/w.NominalS)))
}

// jobList returns the workload's operations for a seed: the pool, once
// per pass, each pass in an order drawn from the seed. It is a pure
// function of its arguments and never runs a job, so it cannot select
// jobs by their outcome. service-triage interleaves one ingest batch
// after every ingestEvery jobs; batch k ingests the named corpus of app
// k mod 5.
func (w *Workload) jobList(seed int64, passes int) []Job {
	var out []Job
	jobs, ingests := 0, 0
	for p := 0; p < passes; p++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(p)))
		for _, i := range rng.Perm(len(w.Pool)) {
			j := w.Pool[i]
			j.Seq, j.Pass = len(out), p
			out = append(out, j)
			jobs++
			if w.Name == "service-triage" && jobs%ingestEvery == 0 {
				app := serviceApps[ingests%len(serviceApps)]
				out = append(out, Job{
					Seq: len(out), Pass: p, Key: "ingest/" + app, App: app,
					Seed: namedSeed, Rate: serviceRates[0], Ingest: true,
				})
				ingests++
			}
		}
	}
	return out
}
