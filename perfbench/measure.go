package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/symexec"
)

// result is what one operation produced, as the benchmark observed it.
type result struct {
	Job     Job
	Start   time.Time
	Latency time.Duration
	Fail    []string // failed operation or output check, one entry each

	Found   bool
	Digest  string  // what was detected: core.DetectionDigest, or a pure run's outcome
	Steps   []int64 // per candidate attempt (pure-breadth: one run)
	Witness *interp.Input
	Vuln    string // "kind in func" of the reported vulnerability
	Kind    interp.FaultKind
	Func    string

	// service-triage only: the daemon's view of the job.
	Refused                      int // 429 refusals before admission
	Submitted, Started, Finished time.Time
	StreamEnd                    time.Time // the client saw the SSE stream end
	SubmitDur, ReportDur         time.Duration
}

func (r *result) fail(format string, args ...any) {
	r.Fail = append(r.Fail, fmt.Sprintf(format, args...))
}

// fillReport copies what a pipeline report detected into r.
func (r *result) fillReport(rep *core.Report) {
	r.Found = rep.Found()
	r.Digest = core.DetectionDigest(rep)
	r.Steps = r.Steps[:0]
	for _, c := range rep.Candidates {
		r.Steps = append(r.Steps, c.Steps)
	}
	if rep.Vuln != nil {
		r.setVuln(rep.Vuln)
	}
}

func (r *result) setVuln(v *symexec.Vulnerability) {
	r.Witness, r.Kind, r.Func = v.Witness, v.Kind, v.Func
	r.Vuln = fmt.Sprintf("%s in %s", v.Kind, v.Func)
}

// documented lists vulnerabilities an app's source documents besides its
// VulnFunc: msgtool has two distinct overflows, and the single-pipeline
// run may verify either one.
var documented = map[string][]string{"msgtool": {"unpack_payload"}}

// knownVuln reports whether a fault of this kind in this function is a
// documented vulnerability of the app.
func knownVuln(app *apps.App, kind interp.FaultKind, fn string) bool {
	if kind != app.VulnKind {
		return false
	}
	if fn == app.VulnFunc {
		return true
	}
	for _, f := range documented[app.Name] {
		if fn == f {
			return true
		}
	}
	return false
}

// checkWitness replays a reported witness on the concrete VM: it must
// fault with the reported kind inside the reported function, and that
// fault must be a documented vulnerability of the app.
func checkWitness(app *apps.App, prog *bytecode.Program, kind interp.FaultKind, fn string, w *interp.Input) error {
	if !knownVuln(app, kind, fn) {
		return fmt.Errorf("%s: reported %s in %q is not a documented vulnerability (%s in %q)",
			app.Name, kind, fn, app.VulnKind, app.VulnFunc)
	}
	if w == nil {
		return fmt.Errorf("%s: reported vulnerability has no witness", app.Name)
	}
	res, err := interp.Run(prog, w, interp.Config{})
	if err != nil {
		return fmt.Errorf("%s: witness replay: %v", app.Name, err)
	}
	if res.Fault != kind || res.FaultFunc != fn {
		return fmt.Errorf("%s: witness replays to %s in %q, reported %s in %q",
			app.Name, res.Fault, res.FaultFunc, kind, fn)
	}
	return nil
}

// checkWitnesses replays the witness of every found job (outside the
// timed phase).
func checkWitnesses(results []*result, progs map[string]*bytecode.Program) {
	for _, r := range results {
		if !r.Found || r.Job.Ingest || len(r.Fail) > 0 {
			continue
		}
		app, err := apps.Get(r.Job.App)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		if err := checkWitness(app, progs[r.Job.App], r.Kind, r.Func, r.Witness); err != nil {
			r.fail("job %d (%s): %v", r.Job.Seq, r.Job.Key, err)
		}
	}
}

// checkRepeats requires every job of a key to detect the same things
// with the same per-attempt step counts as the key's first job.
func checkRepeats(results []*result) {
	first := map[string]*result{}
	for _, r := range results {
		if r.Job.Ingest || len(r.Fail) > 0 {
			continue
		}
		f, ok := first[r.Job.Key]
		if !ok {
			first[r.Job.Key] = r
			continue
		}
		if err := sameOutcome(f, r); err != nil {
			r.fail("job %d repeats job %d (%s) but %v", r.Job.Seq, f.Job.Seq, r.Job.Key, err)
		}
	}
}

// sameOutcome compares two observations of the same job.
func sameOutcome(a, b *result) error {
	if a.Digest != b.Digest {
		return fmt.Errorf("detection digest differs:\n%s---\n%s", a.Digest, b.Digest)
	}
	if fmt.Sprint(a.Steps) != fmt.Sprint(b.Steps) {
		return fmt.Errorf("attempt steps differ: %v vs %v", a.Steps, b.Steps)
	}
	return nil
}

// settle collects garbage before a job of a single-client workload, so
// every job starts from the heap a fresh CLI process would have instead
// of paying for its predecessor's garbage. It runs outside the job's
// timing.
func settle() { runtime.GC() }

// sample is one reading of the process's CPU time and live heap.
type sample struct {
	at   time.Time
	cpu  time.Duration
	live uint64 // live heap as of the last completed GC
}

// phase measures a timed phase from outside the program: a sampler
// goroutine reads the process CPU time and the post-GC live heap every
// sampleEvery, so figures can be taken per pass of the job list.
type phase struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []sample
}

// sampleEvery is well below the interval between GC cycles of the
// workloads' heaps, so the sampler sees every cycle's live heap.
const sampleEvery = 10 * time.Millisecond

func startPhase() *phase {
	p := &phase{stop: make(chan struct{})}
	p.sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *phase) sample() {
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	s := sample{at: time.Now(), cpu: processCPU()}
	if m[0].Value.Kind() == metrics.KindUint64 {
		s.live = m[0].Value.Uint64()
	}
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.mu.Unlock()
}

// finish stops the sampler, waits for it, and returns the samples.
func (p *phase) finish() []sample {
	close(p.stop)
	p.wg.Wait()
	p.sample()
	return p.samples
}

// window summarizes the samples over [from, to]: CPU time spent in it
// and the largest live heap seen, counting the reading in force at from.
func window(samples []sample, from, to time.Time) (cpu time.Duration, peak uint64) {
	first, last := 0, len(samples)-1
	for i, s := range samples {
		if !s.at.After(from) {
			first = i
		}
	}
	for i := len(samples) - 1; i >= 0; i-- {
		if !samples[i].at.Before(to) {
			last = i
		}
	}
	for _, s := range samples[first : last+1] {
		peak = max(peak, s.live)
	}
	return samples[last].cpu - samples[first].cpu, peak
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd holds the metrics a user of the system sees.
type endToEnd struct {
	SetupS     float64
	JobsPerS   float64
	JobP50S    float64
	JobTail    Tail
	CPUPerJobS float64
	PeakLiveMB float64
	FoundFrac  float64
	FailedFrac float64

	Jobs, Attempted, Failed, Passes int
	WallS                           float64
}

// summarize derives the end-to-end metrics of one timed phase. Throughput,
// CPU per job, peak live heap and the latency percentiles are taken per
// pass of the job list — every pass runs the same jobs — and reported as
// the median over passes, so a burst of host noise in one pass does not
// move them. A pass too small for a tail (ten jobs or fewer) leaves the
// tail to be taken over the whole run.
func summarize(results []*result, setupS float64, samples []sample) (endToEnd, error) {
	e := endToEnd{SetupS: setupS}
	type pass struct {
		from, to time.Time
		lat      []float64
	}
	passes := map[int]*pass{}
	var lat []float64
	found := 0
	e.Attempted, e.Failed = counts(results)
	for _, r := range results {
		p := passes[r.Job.Pass]
		if p == nil {
			p = &pass{from: r.Start, to: r.Start}
			passes[r.Job.Pass] = p
		}
		if r.Start.Before(p.from) {
			p.from = r.Start
		}
		if end := r.Start.Add(r.Latency); end.After(p.to) {
			p.to = end
		}
		if r.Job.Ingest {
			continue
		}
		e.Jobs++
		p.lat = append(p.lat, r.Latency.Seconds())
		lat = append(lat, r.Latency.Seconds())
		if r.Found {
			found++
		}
	}
	if e.Jobs == 0 || len(samples) == 0 {
		return e, fmt.Errorf("no jobs ran")
	}
	var rate, cpuPer, peak, p50, tails []float64
	perPass := true
	for _, p := range passes {
		if len(p.lat) == 0 {
			continue
		}
		wall := p.to.Sub(p.from).Seconds()
		cpu, live := window(samples, p.from, p.to)
		rate = append(rate, float64(len(p.lat))/wall)
		cpuPer = append(cpuPer, cpu.Seconds()/float64(len(p.lat)))
		peak = append(peak, float64(live)/(1<<20))
		p50 = append(p50, median(p.lat))
		if t, err := tail(p.lat); err == nil {
			e.JobTail = t // its percentile and sample count: every pass holds the pool
			tails = append(tails, t.Value)
		} else {
			perPass = false
		}
	}
	// The tail, too, is taken per pass when every pass has enough jobs for
	// one; otherwise over the whole run.
	if perPass {
		e.JobTail.Value, e.JobTail.Passes = median(tails), len(tails)
	} else {
		t, err := tail(lat)
		if err != nil {
			return e, err
		}
		e.JobTail = t
	}
	e.Passes = len(rate)
	e.WallS = samples[len(samples)-1].at.Sub(samples[0].at).Seconds()
	e.JobsPerS = median(rate)
	e.JobP50S = median(p50)
	e.CPUPerJobS = median(cpuPer)
	e.PeakLiveMB = median(peak)
	e.FoundFrac = float64(found) / float64(e.Jobs)
	e.FailedFrac = float64(e.Failed) / float64(e.Attempted)
	return e, nil
}

// counts returns the operations attempted — every job and ingest batch,
// plus every submission the daemon refused — and how many of them failed.
func counts(results []*result) (attempted, failed int) {
	for _, r := range results {
		attempted += 1 + r.Refused
		failed += r.Refused
		if len(r.Fail) > 0 {
			failed++
		}
	}
	return attempted, failed
}

// failures lists every recorded failure in job order.
func failures(results []*result) []string {
	var out []string
	rs := append([]*result(nil), results...)
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Job.Seq < rs[j].Job.Seq })
	for _, r := range rs {
		out = append(out, r.Fail...)
	}
	return out
}
