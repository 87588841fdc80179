package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// obsCorpus builds the standard test corpus for one app.
func obsCorpus(t *testing.T, name string) (*apps.App, *trace.Corpus) {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app, corpus
}

// runObserved runs the pipeline with a recording sink attached and
// returns the report plus the recorded events.
func runObserved(t *testing.T, name string, mut func(*Config)) (*Report, []obs.Event) {
	t.Helper()
	app, corpus := obsCorpus(t, name)
	cfg := Config{Spec: app.Spec}
	if mut != nil {
		mut(&cfg)
	}
	rec := &obs.Recorder{}
	ctx := obs.NewContext(context.Background(), obs.New(rec))
	rep, err := runCorpus(ctx, app.Program(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec.Events()
}

// spanIndex collects open/close events per span ID.
type spanIndex struct {
	open  map[int64]obs.Event
	close map[int64]obs.Event
}

func indexSpans(t *testing.T, events []obs.Event) *spanIndex {
	t.Helper()
	idx := &spanIndex{open: map[int64]obs.Event{}, close: map[int64]obs.Event{}}
	for _, ev := range events {
		switch ev.Type {
		case obs.EventSpanOpen:
			if _, dup := idx.open[ev.Span]; dup {
				t.Errorf("span %d opened twice", ev.Span)
			}
			idx.open[ev.Span] = ev
		case obs.EventSpanClose:
			if _, ok := idx.open[ev.Span]; !ok {
				t.Errorf("span %d closed without an open", ev.Span)
			}
			if _, dup := idx.close[ev.Span]; dup {
				t.Errorf("span %d closed twice", ev.Span)
			}
			idx.close[ev.Span] = ev
		}
	}
	for id, ev := range idx.open {
		if _, ok := idx.close[id]; !ok {
			t.Errorf("span %d (%s) never closed", id, ev.Name)
		}
	}
	return idx
}

// TestPipelineSpanTreeParallel: with Parallel=8, the concurrent verify
// spans must all nest under the single pipeline root deterministically,
// each solver span under its verify span, and every span must balance
// open/close. Run under -race this also exercises the registry and sink
// from 8 workers (the ISSUE's race-cleanliness requirement).
func TestPipelineSpanTreeParallel(t *testing.T) {
	rep, events := runObserved(t, "thttpd", func(c *Config) { c.Parallel = 8 })
	idx := indexSpans(t, events)

	var rootID int64
	for id, ev := range idx.open {
		if ev.Name == "pipeline" {
			if rootID != 0 {
				t.Fatalf("two pipeline roots: %d and %d", rootID, id)
			}
			rootID = id
		}
	}
	if rootID == 0 {
		t.Fatal("no pipeline root span")
	}
	if got := idx.open[rootID].Parent; got != 0 {
		t.Fatalf("pipeline root has parent %d", got)
	}

	verifyRanks := map[int]int64{}
	for id, ev := range idx.open {
		switch ev.Name {
		case "stats", "candidates":
			if ev.Parent != rootID {
				t.Errorf("%s span parent = %d, want pipeline %d", ev.Name, ev.Parent, rootID)
			}
		case "verify":
			if ev.Parent != rootID {
				t.Errorf("verify span %d parent = %d, want pipeline %d", id, ev.Parent, rootID)
			}
			rank, ok := idx.open[id].Attrs["rank"].(int)
			if !ok {
				t.Fatalf("verify span %d missing integer rank attr: %v", id, idx.open[id].Attrs)
			}
			if prev, dup := verifyRanks[rank]; dup {
				t.Errorf("rank %d has two verify spans (%d and %d)", rank, prev, id)
			}
			verifyRanks[rank] = id
		case "solver":
			parent := idx.open[ev.Parent]
			if parent.Name != "verify" {
				t.Errorf("solver span %d parent is %q, want a verify span", id, parent.Name)
			}
		}
	}
	// Every recorded attempt has its verify span.
	for _, c := range rep.Candidates {
		if _, ok := verifyRanks[c.Index]; !ok {
			t.Errorf("attempt rank %d has no verify span", c.Index)
		}
	}
	// Durations are sane: non-negative, and no child outlives the root.
	rootDur := idx.close[rootID].DurUS
	for id, ev := range idx.close {
		if ev.DurUS < 0 {
			t.Errorf("span %d (%s) negative duration", id, ev.Name)
		}
		if id != rootID && ev.DurUS > rootDur {
			t.Errorf("span %d (%s) duration %dµs exceeds pipeline root %dµs", id, ev.Name, ev.DurUS, rootDur)
		}
	}
}

// TestSpanDurationsConsistentWithReport: in a sequential run the span
// durations must account for the Report's phase times — the verify spans
// sum to no more than SymTime, and stats+candidates fit inside StatTime
// (all measured inside the respective phase windows).
func TestSpanDurationsConsistentWithReport(t *testing.T) {
	rep, events := runObserved(t, "polymorph", nil)
	idx := indexSpans(t, events)
	var verifySum, statSum int64
	for id, ev := range idx.open {
		switch ev.Name {
		case "verify":
			verifySum += idx.close[id].DurUS
		case "stats", "candidates":
			statSum += idx.close[id].DurUS
		}
	}
	// A microsecond of slack per span absorbs rounding.
	slack := int64(len(idx.open))
	if max := rep.SymTime.Microseconds() + slack; verifySum > max {
		t.Errorf("verify spans sum to %dµs, exceeding SymTime %dµs", verifySum, max)
	}
	if max := rep.StatTime.Microseconds() + slack; statSum > max {
		t.Errorf("stats+candidates spans sum to %dµs, exceeding StatTime %dµs", statSum, max)
	}
	if len(rep.Candidates) == 0 || verifySum == 0 {
		t.Fatalf("expected at least one timed verify span (candidates=%d, sum=%d)", len(rep.Candidates), verifySum)
	}
}

// TestAbandonWarnDistinguishesBudget: a candidate killed by the state
// budget must emit a warn event naming max-states, so budget exhaustion
// is distinguishable from τ-divergence in logs.
func TestAbandonWarnDistinguishesBudget(t *testing.T) {
	rep, events := runObserved(t, "polymorph", func(c *Config) { c.MaxStates = 1 })
	if rep.Found() {
		t.Fatal("MaxStates=1 should prevent verification")
	}
	warns := 0
	for _, ev := range events {
		if ev.Type != obs.EventWarn {
			continue
		}
		warns++
		if ev.Msg != "candidate abandoned" {
			t.Errorf("warn msg = %q", ev.Msg)
		}
		if reason := ev.Attrs["reason"]; reason != "max-states" {
			t.Errorf("warn reason = %v, want max-states", reason)
		}
	}
	if warns != len(rep.Candidates) {
		t.Errorf("got %d warns for %d abandoned candidates", warns, len(rep.Candidates))
	}
}

// TestAbandonWarnMaxSteps: same channel, step-budget flavor.
func TestAbandonWarnMaxSteps(t *testing.T) {
	_, events := runObserved(t, "polymorph", func(c *Config) { c.PerCandidateMaxSteps = 1 })
	found := false
	for _, ev := range events {
		if ev.Type == obs.EventWarn && ev.Attrs["reason"] == "max-steps" {
			found = true
		}
	}
	if !found {
		t.Error("no warn event with reason max-steps")
	}
}

// TestJSONLTraceParses: an end-to-end run through the real JSONL sink
// must produce a line-parseable trace with balanced spans, and the
// solver metrics surfaced in the report must match the registry. thttpd's
// long path conditions keep component records, so reused components are
// counted too.
func TestJSONLTraceParses(t *testing.T) {
	app, corpus := obsCorpus(t, "thttpd")
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	o := obs.New(sink)
	o.Interval = time.Millisecond
	ctx := obs.NewContext(context.Background(), o)
	rep, err := runCorpus(ctx, app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	opens, closes := 0, 0
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %d unparseable: %v\n%s", i+1, err, line)
		}
		switch ev.Type {
		case obs.EventSpanOpen:
			opens++
		case obs.EventSpanClose:
			closes++
		case obs.EventProgress, obs.EventWarn:
		default:
			t.Errorf("trace line %d has unknown type %q", i+1, ev.Type)
		}
	}
	if opens == 0 || opens != closes {
		t.Errorf("unbalanced trace: %d opens, %d closes", opens, closes)
	}
	snap := o.Metrics.Snapshot()
	var wantChecks int64
	for _, c := range rep.Candidates {
		wantChecks += int64(c.SolverChecks)
	}
	if got := snap[obs.MetricSolverChecks]; got != wantChecks {
		t.Errorf("registry solver.checks = %d, report sum = %d", got, wantChecks)
	}
	if got := snap[obs.MetricCacheHits]; got != int64(rep.CacheHits) {
		t.Errorf("registry cache hits = %d, report %d", got, rep.CacheHits)
	}
	if got := snap[obs.MetricCacheReused]; got != int64(rep.CompReused) || got == 0 {
		t.Errorf("registry reused components = %d, report %d (want equal and nonzero)", got, rep.CompReused)
	}
	if rep.SolverTime <= 0 {
		t.Error("report SolverTime not populated")
	}
}

// TestMergeAttemptsSemantics pins the documented rank-order merge,
// including the TotalSteps accounting for caller-cancelled partial
// attempts (satellite fix: sequential and parallel replays agree).
func TestMergeAttemptsSemantics(t *testing.T) {
	out := func(rank int, steps int64, cancelled bool) CandidateOutcome {
		return CandidateOutcome{Index: rank, Paths: rank, Steps: steps, Cancelled: cancelled}
	}
	vuln := &symexec.Vulnerability{}

	t.Run("cancelled partial counts once", func(t *testing.T) {
		rep := &Report{}
		mergeAttempts(rep, []attempt{
			{outcome: out(1, 10, false), complete: true},
			{outcome: out(2, 5, true)},  // caught mid-flight by caller cancel
			{outcome: out(3, 99, true)}, // also cancelled; sequential never had it in flight
			{},                          // never started
		})
		if len(rep.Candidates) != 2 || rep.TotalSteps != 15 {
			t.Errorf("got %d candidates, %d steps; want 2 candidates, 15 steps: %+v",
				len(rep.Candidates), rep.TotalSteps, rep.Candidates)
		}
	})

	t.Run("stops at first success", func(t *testing.T) {
		rep := &Report{}
		a2 := attempt{outcome: out(2, 20, false), vuln: vuln, complete: true}
		mergeAttempts(rep, []attempt{
			{outcome: out(1, 10, false), complete: true},
			a2,
			{outcome: out(3, 40, false), complete: true}, // completed before the cancel reached it
		})
		if rep.CandidateUsed != 2 || rep.TotalSteps != 30 || len(rep.Candidates) != 2 {
			t.Errorf("used=%d steps=%d candidates=%d; want 2/30/2",
				rep.CandidateUsed, rep.TotalSteps, len(rep.Candidates))
		}
	})

	t.Run("skipped ranks contribute nothing", func(t *testing.T) {
		rep := &Report{}
		mergeAttempts(rep, []attempt{
			{outcome: out(1, 10, true)}, // cancelled mid-flight, lowest rank
			{},                          // skipped
		})
		if len(rep.Candidates) != 1 || rep.TotalSteps != 10 || !rep.Candidates[0].Cancelled {
			t.Errorf("partial merge wrong: %+v", rep)
		}
	})
}

// TestParallelCancelAccountingInvariant: whatever instant the caller's
// cancel lands, the merged report must stay internally consistent —
// totals equal the sum over recorded attempts, and at most one attempt
// (the last) is a cancelled partial, exactly like a sequential replay.
func TestParallelCancelAccountingInvariant(t *testing.T) {
	app, corpus := obsCorpus(t, "thttpd")
	for _, delay := range []time.Duration{time.Millisecond, 10 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		rep, err := runCorpus(ctx, app.Program(), corpus, Config{Spec: app.Spec, Parallel: 4})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		var paths int
		var steps int64
		for i, c := range rep.Candidates {
			paths += c.Paths
			steps += c.Steps
			if c.Cancelled && i != len(rep.Candidates)-1 {
				t.Errorf("delay %v: cancelled attempt at position %d is not last", delay, i)
			}
		}
		if paths != rep.TotalPaths || steps != rep.TotalSteps {
			t.Errorf("delay %v: totals (%d paths, %d steps) != candidate sums (%d, %d)",
				delay, rep.TotalPaths, rep.TotalSteps, paths, steps)
		}
	}
}
