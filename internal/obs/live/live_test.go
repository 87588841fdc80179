package live

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// validateFile runs the flight validator over a dump on disk.
func validateFile(path string) ([]string, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return flight.Validate(f)
}

// TestExpositionRoundTrip renders a populated registry and feeds the
// output through the lint: zero problems, and the family/sample counts
// reflect the metrics.
func TestExpositionRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("symexec.steps").Add(100)
	r.Counter("solver.checks").Add(7)
	r.Gauge("states.live").Set(12)
	h := r.Histogram("diverted.hops", obs.HopBuckets...)
	for i := int64(0); i < 50; i++ {
		h.Observe(i % 20)
	}
	var buf bytes.Buffer
	if err := WriteExposition(&buf, r.Export()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE statsym_symexec_steps counter",
		"statsym_symexec_steps 100",
		"# TYPE statsym_states_live gauge",
		"# TYPE statsym_diverted_hops histogram",
		`statsym_diverted_hops_bucket{le="+Inf"} 50`,
		"statsym_diverted_hops_count 50",
		"# TYPE statsym_diverted_hops_p50 gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	problems, families, samples, err := LintExposition(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("lint: %v", problems)
	}
	if families < 5 || samples < 5 {
		t.Errorf("families=%d samples=%d, want >=5 each", families, samples)
	}
}

// TestLintCatchesViolations exercises each lint class on hand-built
// expositions.
func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, text, wantProblem string
	}{
		{"duplicate family",
			"# TYPE a counter\na 1\n# TYPE a counter\na 2\n", "duplicate family"},
		{"undeclared sample",
			"b 1\n", "no TYPE declaration"},
		{"bad value",
			"# TYPE a counter\na xyz\n", "not a number"},
		{"non-cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
			"not cumulative"},
		{"descending bounds",
			"# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"not ascending"},
		{"missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_sum 1\nh_count 1\n",
			`missing le="+Inf"`},
		{"histogram family sampled bare",
			"# TYPE h histogram\nh 3\n", "without _bucket"},
		{"empty", "", "empty exposition"},
	}
	for _, tc := range cases {
		problems, _, _, err := LintExposition(strings.NewReader(tc.text))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.wantProblem) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %v do not mention %q", tc.name, problems, tc.wantProblem)
		}
	}
}

// TestHubNeverBlocks: an emitter with a full, unread subscriber channel
// must not block; drops are counted per subscriber.
func TestHubNeverBlocks(t *testing.T) {
	h := NewHub()
	_, cancel := h.Subscribe(2) // tiny buffer, never read
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			h.Emit(obs.Event{Time: time.Now(), Type: obs.EventProgress})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hub blocked on a slow subscriber")
	}
	if h.Events() != 1000 {
		t.Errorf("events = %d, want 1000", h.Events())
	}
}

// TestHubSubscribeCancel: cancel unsubscribes, closes the channel, and
// is idempotent.
func TestHubSubscribeCancel(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(0)
	if h.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", h.Subscribers())
	}
	cancel()
	cancel() // idempotent
	if h.Subscribers() != 0 {
		t.Errorf("subscribers = %d after cancel, want 0", h.Subscribers())
	}
	if _, open := <-ch; open {
		t.Error("channel not closed after cancel")
	}
	h.Emit(obs.Event{Type: obs.EventProgress}) // must not panic on closed ch
}

// TestSpanTree reconstructs parentage, durations, and wraparound.
func TestSpanTree(t *testing.T) {
	h := NewHub()
	now := time.Now()
	h.Emit(obs.Event{Time: now, Type: obs.EventSpanOpen, Span: 1, Name: "pipeline"})
	h.Emit(obs.Event{Time: now, Type: obs.EventSpanOpen, Span: 2, Parent: 1, Name: "stats"})
	h.Emit(obs.Event{Time: now, Type: obs.EventSpanClose, Span: 2, Parent: 1, Name: "stats", DurUS: 42})
	h.Emit(obs.Event{Time: now, Type: obs.EventSpanOpen, Span: 3, Parent: 1, Name: "verify", Attrs: map[string]any{"rank": 1}})

	roots := h.SpanTree()
	if len(roots) != 1 || roots[0].Name != "pipeline" || !roots[0].Open {
		t.Fatalf("roots = %+v", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "stats" || kids[1].Name != "verify" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].Open || kids[0].DurUS != 42 {
		t.Errorf("stats child = %+v, want closed with 42us", kids[0])
	}
	if kids[1].Attrs["rank"] != 1 {
		t.Errorf("verify attrs = %v", kids[1].Attrs)
	}

	// Overflow the ring: old spans fall out, tree still builds.
	for i := int64(10); i < int64(10+spanRingDepth+50); i++ {
		h.Emit(obs.Event{Time: now, Type: obs.EventSpanOpen, Span: i, Name: "s"})
	}
	roots = h.SpanTree()
	if len(roots) == 0 || len(roots) > spanRingDepth {
		t.Errorf("wrapped tree has %d roots", len(roots))
	}
}

// newTestServer wires a hub+registry server on an ephemeral port.
func newTestServer(t *testing.T) (*Server, *obs.Obs, string) {
	t.Helper()
	hub := NewHub()
	o := obs.New(hub)
	srv := NewServer(o, hub)
	srv.Tick = 20 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, o, addr
}

// TestServerMetricsEndpoint scrapes /metrics and lints the response.
func TestServerMetricsEndpoint(t *testing.T) {
	_, o, addr := newTestServer(t)
	o.Metrics.Counter("symexec.steps").Add(5)
	o.Metrics.Histogram("diverted.hops", obs.HopBuckets...).Observe(3)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	problems, families, _, err := LintExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("live /metrics fails lint: %v", problems)
	}
	if families < 2 {
		t.Errorf("families = %d, want >= 2", families)
	}
}

// TestServerSpansEndpoint checks /spans returns the JSON tree.
func TestServerSpansEndpoint(t *testing.T) {
	srv, o, addr := newTestServer(t)
	_ = srv
	ctx := obs.NewContext(context.Background(), o)
	ctx, sp := obs.StartSpan(ctx, "pipeline")
	_, child := obs.StartSpan(ctx, "stats")
	child.End()
	sp.End()

	resp, err := http.Get("http://" + addr + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var roots []*SpanNode
	if err := json.NewDecoder(resp.Body).Decode(&roots); err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].Name != "pipeline" || len(roots[0].Children) != 1 {
		t.Fatalf("spans = %+v", roots)
	}
}

// TestSSEProgressStream reads /progress: the immediate snapshot frame, a
// live progress event, and a periodic tick must all arrive.
func TestSSEProgressStream(t *testing.T) {
	_, o, addr := newTestServer(t)
	o.Metrics.Counter("symexec.steps").Add(9)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/progress", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Emit a progress event once the subscription exists; retry a few
	// times since subscribe happens inside the handler.
	go func() {
		for i := 0; i < 50; i++ {
			o.Progress(nil, obs.A("steps", 123))
			time.Sleep(10 * time.Millisecond)
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	var sawSnapshot, sawEvent bool
	for sc.Scan() && !(sawSnapshot && sawEvent) {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var frame sseFrame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		switch frame.Kind {
		case "snapshot":
			if frame.Counters["symexec.steps"] != 9 {
				t.Errorf("snapshot counters = %v", frame.Counters)
			}
			sawSnapshot = true
		case "event":
			if frame.Event == nil || frame.Event.Type != obs.EventProgress {
				t.Errorf("event frame = %+v", frame)
			}
			sawEvent = true
		}
	}
	if !sawSnapshot || !sawEvent {
		t.Fatalf("sawSnapshot=%v sawEvent=%v (scanner err %v)", sawSnapshot, sawEvent, sc.Err())
	}
}

// TestSSECancellationNoLeak opens SSE clients, cancels them, and checks
// every hub subscription is released — the goroutine-leak guard for the
// -listen server (run with -race).
func TestSSECancellationNoLeak(t *testing.T) {
	srv, o, addr := newTestServer(t)
	hub := srv.hub
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/progress", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				cancel()
				return
			}
			buf := make([]byte, 256)
			_, _ = resp.Body.Read(buf) // first frame
			cancel()
			resp.Body.Close()
		}()
	}
	// Emit while clients churn.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				o.Progress(nil, obs.A("x", 1))
			}
		}
	}()
	wg.Wait()
	close(stop)

	deadline := time.Now().Add(5 * time.Second)
	for hub.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hub still has %d subscribers after all clients cancelled", hub.Subscribers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRuntimeWiring: Init with everything off yields an inert runtime;
// with listen+flight it wires a reachable server and a recorder, and
// Shutdown after cancellation dumps the flight ring.
func TestRuntimeWiring(t *testing.T) {
	rt, err := Init(Options{Binary: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Obs() != nil || rt.Addr() != "" {
		t.Errorf("disabled runtime not inert: obs=%v addr=%q", rt.Obs(), rt.Addr())
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	dump := t.TempDir() + "/flight.jsonl"
	rt2, err := Init(Options{
		Binary: "test", Listen: "127.0.0.1:0",
		Flight: dump, FlightDepth: 8, Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Obs() == nil || rt2.Addr() == "" || rt2.Flight() == nil {
		t.Fatalf("runtime not wired: obs=%v addr=%q flight=%v", rt2.Obs(), rt2.Addr(), rt2.Flight())
	}
	ctx := rt2.Context(context.Background())
	obs.Warn(ctx, "boom", obs.A("n", 1))

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", rt2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt2.Shutdown(cctx); err != nil {
		t.Fatal(err)
	}
	problems, summary, err := validateFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("dump invalid: %v", problems)
	}
	if !strings.Contains(summary, `reason "cancelled"`) {
		t.Errorf("summary = %q, want cancelled reason", summary)
	}
}

// TestBindFlags: the shared flag set parses into Options, and a daemon
// keeps its own -listen and always-on metrics out of it.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	o := BindFlags(fs, "cli", false)
	if o.Interval != time.Second || o.FlightDepth != flight.DefaultDepth {
		t.Errorf("defaults: %+v", *o)
	}
	err := fs.Parse([]string{"-listen", "localhost:0", "-metrics", "-trace", "t.jsonl",
		"-trace-interval", "50ms", "-flight", "f.jsonl", "-flight-depth", "7"})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{Binary: "cli", Listen: "localhost:0", Metrics: true, Trace: "t.jsonl",
		Interval: 50 * time.Millisecond, Flight: "f.jsonl", FlightDepth: 7}
	if o.Binary != want.Binary || o.Listen != want.Listen || o.Metrics != want.Metrics ||
		o.Trace != want.Trace || o.Interval != want.Interval || o.Flight != want.Flight ||
		o.FlightDepth != want.FlightDepth {
		t.Errorf("parsed %+v, want %+v", *o, want)
	}

	fs = flag.NewFlagSet("daemon", flag.ContinueOnError)
	BindFlags(fs, "daemon", true)
	for _, name := range []string{"listen", "metrics"} {
		if fs.Lookup(name) != nil {
			t.Errorf("daemon flag set registers -%s", name)
		}
	}
	for _, name := range []string{"trace", "trace-interval", "flight", "flight-depth"} {
		if fs.Lookup(name) == nil {
			t.Errorf("daemon flag set lacks -%s", name)
		}
	}
}
