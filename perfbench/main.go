// Command perfbench is the repository benchmark: it runs one named
// workload at a workload seed against the system's public entry points,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) ending in one JSON line.
//
//	bash perfbench/run.sh --workload guided-deep --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload pure-breadth --steady 10
//
// See README.md in this directory for the workloads, the metrics and
// how each layer maps to the end-to-end numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bytecode"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench runs one workload. The untraced run calls the system's
// public entry points (core.RunJob, core.RunPureContext, the statsymd
// HTTP API); with a recorder it calls the layer functions those entry
// points call, each inside a span, and folds per-layer figures into acc.
type bench interface {
	// setup prepares everything before the first timed job.
	setup(ctx context.Context, rec *Recorder, acc *layers) error
	// run executes jobs in the workload's closed loop.
	run(ctx context.Context, jobs []Job, rec *Recorder, acc *layers) []*result
	// check runs the output checks that are not timed.
	check(ctx context.Context, results []*result, rec *Recorder, acc *layers)
	// programs returns the compiled programs by app name.
	programs() map[string]*bytecode.Program
	// close releases what setup acquired and waits for it to stop.
	close()
}

func newBench(w *Workload) bench {
	switch w.Name {
	case "guided-deep":
		return &guidedBench{}
	case "pure-breadth":
		return &pureBench{}
	default:
		return &serviceBench{}
	}
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, and the last set-up serves the timed phase. Set-up includes
// fsync'd writes (the daemon's ledger, sealed corpus shards), whose
// latency varies more than computation does.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	steady   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: guided-deep, pure-breadth or service-triage")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: sets the job order")
	fs.Float64Var(&o.seconds, "seconds", 15, "measuring time, rounded to whole passes over the job pool")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.IntVar(&o.steady, "steady", 0, "run the workload this many times in fresh processes, seeds seed, seed+1, ..., and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.steady > 0 {
		return steady(w, o, stdout, stderr)
	}
	ctx := context.Background()
	if o.trace == 1 {
		return traced(ctx, w, o, stdout, stderr)
	}
	return untraced(ctx, w, o, stdout, stderr)
}

// untraced measures the end-to-end metrics.
func untraced(ctx context.Context, w *Workload, o options, stdout, stderr io.Writer) int {
	var b bench
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		b = newBench(w)
		t0 := time.Now()
		if err := b.setup(ctx, nil, nil); err != nil {
			b.close()
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.close()

	passes := w.passes(o.seconds, w.MinPasses)
	jobs := w.jobList(o.seed, passes)
	ph := startPhase()
	results := b.run(ctx, jobs, nil, nil)
	samples := ph.finish()
	b.check(ctx, results, nil, nil)
	checkRepeats(results)
	checkWitnesses(results, b.programs())

	e, err := summarize(results, median(setupS), samples)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d jobs, %d operations in %.2f s (%d passes of %d), set-up %s\n",
		w.Name, o.seed, e.Jobs, e.Attempted, e.WallS, e.Passes, len(w.Pool), secondsList(setupS))
	ms := e.metrics()
	printTable(stdout, append(ms, metric{"failed_frac", e.FailedFrac, "ratio"}),
		map[string]string{"job_s_tail": e.JobTail.Label()})
	return finish(stdout, stderr, results, e.Attempted, e.Failed, ms)
}

// traced runs the same job list twice in one process — untraced through
// the public entry points, then traced through the layer functions — and
// prints the per-layer metrics, the tracing overhead, and any difference
// between the two runs' outcomes.
func traced(ctx context.Context, w *Workload, o options, stdout, stderr io.Writer) int {
	rec := newRecorder()
	acc := newLayers()
	b := newBench(w)
	defer b.close()
	if err := b.setup(ctx, rec, acc); err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	passes := w.passes(o.seconds/2, 1)
	jobs := w.jobList(o.seed, passes)

	t0 := time.Now()
	plain := b.run(ctx, jobs, nil, nil)
	plainWall := time.Since(t0)
	t0 = time.Now()
	withSpans := b.run(ctx, jobs, rec, acc)
	tracedWall := time.Since(t0)

	b.check(ctx, plain, nil, nil)
	b.check(ctx, withSpans, rec, acc)
	all := append(append([]*result(nil), plain...), withSpans...)
	checkRepeats(all)
	checkWitnesses(all, b.programs())

	self, err := selfTimes(rec.Spans())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	acc.self = self
	acc.overheadFrac = tracedWall.Seconds()/plainWall.Seconds() - 1
	acc.untracedP50 = median(latencies(plain))
	acc.tracedP50 = median(latencies(withSpans))
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, o.seed))
	if err := rec.WriteJSONL(spans); err != nil {
		fmt.Fprintln(stderr, "perfbench: spans:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d traced: %d operations per run (%d passes), untraced %.2f s, traced %.2f s, %d spans in %s\n",
		w.Name, o.seed, len(jobs), passes, plainWall.Seconds(), tracedWall.Seconds(), len(rec.Spans()), spans)
	ms := acc.metrics()
	printTable(stdout, ms, nil)
	attempted, failed := counts(all)
	return finish(stdout, stderr, all, attempted, failed, ms)
}

func latencies(results []*result) []float64 {
	var out []float64
	for _, r := range results {
		if !r.Job.Ingest {
			out = append(out, r.Latency.Seconds())
		}
	}
	return out
}

// metrics returns the end-to-end metrics named in BENCHMARK.json. The
// failure share is printed beside them but not listed there: it is 0 on
// every correct run, and the result line carries the counts.
func (e endToEnd) metrics() []metric {
	return []metric{
		{"setup_s", e.SetupS, "s"},
		{"jobs_per_s", e.JobsPerS, "1/s"},
		{"job_s_p50", e.JobP50S, "s"},
		{"job_s_tail", e.JobTail.Value, "s"},
		{"cpu_s_per_job", e.CPUPerJobS, "s"},
		{"peak_live_heap_mb", e.PeakLiveMB, "MB"},
		{"found_frac", e.FoundFrac, "ratio"},
	}
}

func printTable(w io.Writer, ms []metric, notes map[string]string) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, notes[m.Name])
	}
}

func secondsList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3f s", x)
	}
	return s
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints every failure and the result line, and returns the exit
// code: non-zero when any operation or output check failed.
func finish(stdout, stderr io.Writer, results []*result, attempted, failed int, ms []metric) int {
	fails := failures(results)
	for _, f := range fails {
		fmt.Fprintln(stdout, "FAIL:", f)
	}
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		line.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if failed > 0 {
		return 1
	}
	return 0
}
