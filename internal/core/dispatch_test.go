package core

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/symexec/snapshot"
)

// startCoreWorker serves real attempt units (NewDispatchRunner) on a unix
// socket, exactly like `symexec -serve-worker` does in its own process.
func startCoreWorker(t *testing.T, wc WorkerConfig) string {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "w.sock")
	l, err := dispatch.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go dispatch.Serve(l, NewDispatchRunner(wc))
	t.Cleanup(func() { l.Close() })
	return addr
}

// TestDispatchWorkerCrashRecovery kills the worker mid-unit — the
// connection drops after the unit is accepted, as if the process died — and
// requires (a) the unit to be re-dispatched locally, and (b) the detection
// digest to stay byte-identical: a lost worker costs speed, never a
// detection.
func TestDispatchWorkerCrashRecovery(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	base := Config{Spec: app.Spec}
	ref, err := runSequentialOracle(app.Program(), corpus, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.PathRes.Candidates) < 2 {
		t.Fatalf("crash test needs >= 2 candidates to guarantee a steal, got %d", len(ref.PathRes.Candidates))
	}

	// A worker that crashes on every unit: handshake, accept the unit,
	// slam the connection shut without replying.
	addr := filepath.Join(t.TempDir(), "crash.sock")
	l, err := dispatch.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				snapshot.ReadFrame(conn)
				snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte(dispatch.Magic))
				snapshot.ReadFrame(conn) // accept the unit, then "die"
			}(conn)
		}
	}()

	cfg := base
	cfg.Dispatch = true
	cfg.WorkerAddrs = []string{addr}
	// The digest must match on every run; the steal itself is guaranteed
	// by the readiness barrier, but a few retries keep the assertion
	// immune to scheduler pathology on loaded single-core hosts.
	redispatched := 0
	for try := 0; try < 5 && redispatched == 0; try++ {
		got, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		holds(t, ref, row{"crashing-worker", got}, sameDigest, sameOutcomes)
		if got.DispatchRemote != 0 {
			t.Errorf("crashing worker completed %d units", got.DispatchRemote)
		}
		redispatched = got.DispatchRedispatched
	}
	if redispatched < 1 {
		t.Error("no unit was ever re-dispatched locally after the worker crash")
	}
}

// TestDispatchDeadlineRecovery: a hung worker (accepts the unit, never
// replies) must be cut off by UnitDeadline and its unit re-run locally,
// with the digest unchanged.
func TestDispatchDeadlineRecovery(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	base := Config{Spec: app.Spec}
	ref, err := runSequentialOracle(app.Program(), corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	addr := filepath.Join(t.TempDir(), "hung.sock")
	l, err := dispatch.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				snapshot.ReadFrame(conn)
				snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte(dispatch.Magic))
				snapshot.ReadFrame(conn)     // accept the unit...
				time.Sleep(30 * time.Second) // ...and hang well past the deadline
			}(conn)
		}
	}()

	cfg := base
	cfg.Dispatch = true
	cfg.WorkerAddrs = []string{addr}
	cfg.UnitDeadline = 200 * time.Millisecond
	got, err := runCorpus(context.Background(), app.Program(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	holds(t, ref, row{"hung-worker", got}, sameDigest, sameOutcomes)
	if got.DispatchRemote != 0 {
		t.Errorf("hung worker completed %d units", got.DispatchRemote)
	}
}

// TestAttemptUnitRoundTrip: the attempt unit and result codecs invert.
func TestAttemptUnitRoundTrip(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	cfg := Config{Spec: app.Spec, Tau: 7, MinPredScore: 0.25,
		PerCandidateMaxSteps: 12345, MaxStates: 99, Workers: 3, Scope: "all", Summaries: true}
	rep, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PathRes.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	cand := rep.PathRes.Candidates[0]
	payload := EncodeAttemptUnit(app.Program(), cand, 3, cfg)
	prog2, cand2, rank, cfg2, err := DecodeAttemptUnit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 3 || prog2.Name != app.Program().Name {
		t.Fatalf("rank=%d prog=%q", rank, prog2.Name)
	}
	if cfg2.Tau != 7 || cfg2.MinPredScore != 0.25 || cfg2.PerCandidateMaxSteps != 12345 ||
		cfg2.MaxStates != 99 || cfg2.Workers != cfg.effectiveWorkers() ||
		cfg2.Scope != "all" || !cfg2.Summaries {
		t.Fatalf("config diverged: %+v", cfg2)
	}
	if cand2.Len() != cand.Len() {
		t.Fatalf("candidate length %d, want %d", cand2.Len(), cand.Len())
	}

	out := CandidateOutcome{Index: 3, PathLen: 9, Found: true, Paths: 4, Steps: 1000,
		Suspends: 2, Matches: 8, Elapsed: time.Second, SolverChecks: 17, CacheHits: 5,
		CompReused: 6, CacheMisses: 12, SolverTime: time.Millisecond, SummaryCalls: 1}
	blob := encodeAttemptResult(out, nil)
	out2, vuln, err := decodeAttemptResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if vuln != nil || out2 != out {
		t.Fatalf("result round trip diverged:\n  in  %+v\n  out %+v", out, out2)
	}
}

// TestDispatchLogWritten: the -dispatch-log JSONL audit trail carries only
// known events and ends with exactly one merge line.
func TestDispatchLogWritten(t *testing.T) {
	app, corpus := appCorpus(t, "polymorph")
	w := startCoreWorker(t, WorkerConfig{})
	logPath := filepath.Join(t.TempDir(), "dispatch.jsonl")
	cfg := Config{Spec: app.Spec, Dispatch: true, WorkerAddrs: []string{w}, DispatchLog: logPath}
	if _, err := runCorpus(context.Background(), app.Program(), corpus, cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	merges, lines := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev DispatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if !KnownDispatchEvents[ev.Event] {
			t.Fatalf("line %d: unknown event %q", lines, ev.Event)
		}
		if ev.T.IsZero() {
			t.Fatalf("line %d: missing timestamp", lines)
		}
		if ev.Event == "merge" {
			merges++
		}
	}
	if lines < 2 {
		t.Fatalf("dispatch log has %d lines, want at least dial+merge", lines)
	}
	if merges != 1 {
		t.Fatalf("dispatch log has %d merge lines, want 1", merges)
	}
}
