// Command tracecheck validates artifacts of the pipeline's data plane. For
// a JSONL event trace (the -trace flag of statsym, symexec, or benchtab):
// every line must parse as an obs.Event with a known type, every span must
// open exactly once before it closes, parents must refer to already-opened
// spans, and no span may remain open at end of trace. A flight-recorder
// dump (the -flight flag; first line is a flight.header record) is checked
// with the flight package's structural validator, and a Prometheus
// /metrics scrape (detected by its "# HELP"/"# TYPE" leader) with the
// exposition lint from the live package. Both segment-store kinds — trace
// corpora (*.seg, manifest.json) and persistent solver caches (*.scq,
// solvercache.json) — go through one segment check (magic, trailer, footer
// checksum, block CRCs, a full record decode, and for cache entries the
// digest, model and ordering checks) and one store check (every
// manifested segment plus manifest agreement and stray files). A
// checkpoint (*.ssnap) is checked frame-first (single CRC-verified
// checkpoint frame, no trailing bytes) and then fully decoded by resuming
// it; a dispatch audit log (-dispatch-log JSONL, sniffed by its "event"
// field) must hold only known scheduling events and record a merge.
// The statsymd daemon's artifacts are covered too: a job ledger (sniffed
// by its crc+rec framing and statsymd.ledger header) is checked for CRC
// discipline, known states, monotonic per-job transitions, specs on
// admission records, and digests on done records; a saved job-spec JSON
// (kind statsymd.jobspec/v1) is schema-validated; a sharded corpus
// directory (shards.json manifest) has every shard store deep-verified.
// It exits non-zero on the first class of violation found (including a
// truncated segment), so CI can smoke-test every layer with real runs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/live"
	"repro/internal/service"
	"repro/internal/solver/persist"
	"repro/internal/symexec"
	"repro/internal/symexec/snapshot"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracecheck TRACE.jsonl | FLIGHT-DUMP.jsonl | DISPATCH-LOG.jsonl | METRICS.prom | SEGMENT.seg | CHECKPOINT.ssnap | JOBS.ledger | JOBSPEC.json | STORE-DIR")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	arg := flag.Arg(0)
	var problems []string
	var summary string
	var err error
	if st, serr := os.Stat(arg); serr == nil && st.IsDir() {
		switch {
		case cacheStore.kind.StoreIn(arg):
			problems, summary, err = checkStore(arg, cacheStore)
		case corpus.IsShardedDir(arg):
			problems, summary, err = checkShardedStore(arg)
		default:
			problems, summary, err = checkStore(arg, traceStore)
		}
	} else if strings.HasSuffix(arg, ".ssnap") {
		problems, summary, err = checkCheckpoint(arg)
	} else if strings.HasSuffix(arg, traceStore.kind.Suffix) {
		problems, summary, err = checkSegment(arg, traceStore)
	} else if strings.HasSuffix(arg, cacheStore.kind.Suffix) {
		problems, summary, err = checkSegment(arg, cacheStore)
	} else {
		switch sniff(arg) {
		case "flight":
			problems, summary, err = checkFlight(arg)
		case "metrics":
			problems, summary, err = checkMetrics(arg)
		case "dispatch":
			problems, summary, err = checkDispatchLog(arg)
		case "ledger":
			problems, summary, err = checkLedger(arg)
		case "jobspec":
			problems, summary, err = checkJobSpec(arg)
		default:
			problems, summary, err = check(arg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	fmt.Println(summary)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "tracecheck:", p)
		}
		os.Exit(1)
	}
}

// sniff classifies a non-segment file by its first line: a JSON object
// whose type is flight.header is a flight dump; a line starting with "#"
// or a bare Prometheus sample is a /metrics scrape; anything else falls
// through to the JSONL trace checker (whose parser reports precise
// problems for malformed input).
func sniff(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "trace"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		return "trace"
	}
	line := bytes.TrimSpace(sc.Bytes())
	if len(line) == 0 {
		return "trace"
	}
	if line[0] == '{' {
		var probe struct {
			Type  string `json:"type"`
			Event string `json:"event"`
			Kind  string `json:"kind"`
			Rec   *struct {
				Type string `json:"type"`
			} `json:"rec"`
		}
		if json.Unmarshal(line, &probe) == nil {
			if probe.Type == flight.TypeHeader {
				return "flight"
			}
			// A dispatch audit log leads with an "event" field instead of
			// an obs event "type".
			if probe.Type == "" && core.KnownDispatchEvents[probe.Event] {
				return "dispatch"
			}
			// A statsymd job ledger wraps records in crc+rec frames; its
			// first record is the typed header.
			if probe.Rec != nil && probe.Rec.Type == service.LedgerType {
				return "ledger"
			}
			// A single-line saved job spec declares its kind inline.
			if probe.Kind == service.SpecKind {
				return "jobspec"
			}
		}
		// A pretty-printed job spec spans lines; probe the whole document.
		if blob, rerr := os.ReadFile(path); rerr == nil && len(blob) < 1<<20 {
			var doc struct {
				Kind string `json:"kind"`
			}
			if json.Unmarshal(blob, &doc) == nil && doc.Kind == service.SpecKind {
				return "jobspec"
			}
		}
		return "trace"
	}
	if line[0] == '#' {
		return "metrics"
	}
	return "trace"
}

// checkLedger validates a statsymd job ledger: crc+rec framing, the typed
// header, known job states, monotonic per-job transitions, specs present
// and valid on admission records, digests on done records.
func checkLedger(path string) (problems []string, summary string, err error) {
	problems, summary, err = service.ValidateLedger(path)
	return problems, "tracecheck: " + path + ": " + summary, err
}

// checkJobSpec validates a saved statsymd job-spec document against the
// same rules the daemon's admission check applies.
func checkJobSpec(path string) (problems []string, summary string, err error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var spec service.JobSpec
	if jerr := dec.Decode(&spec); jerr != nil {
		problems = append(problems, fmt.Sprintf("spec does not decode: %v", jerr))
	} else {
		if spec.Kind != service.SpecKind {
			problems = append(problems, fmt.Sprintf("kind %q, want %q", spec.Kind, service.SpecKind))
		}
		problems = append(problems, spec.Problems()...)
	}
	summary = fmt.Sprintf("tracecheck: %s: job spec — %d bytes, %d problems", path, len(blob), len(problems))
	return problems, summary, nil
}

// checkShardedStore validates a sharded corpus directory: the shards.json
// manifest plus a deep verify of every shard store.
func checkShardedStore(dir string) (problems []string, summary string, err error) {
	s, err := corpus.OpenSharded(dir)
	if err != nil {
		return nil, "", err
	}
	problems, vsummary, err := s.Verify()
	if err != nil {
		return nil, "", err
	}
	return problems, "tracecheck: " + dir + ": " + vsummary, nil
}

// checkFlight validates a flight-recorder dump.
func checkFlight(path string) (problems []string, summary string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	problems, summary, err = flight.Validate(f)
	return problems, "tracecheck: " + path + ": " + summary, err
}

// checkMetrics lints a Prometheus text exposition scrape.
func checkMetrics(path string) (problems []string, summary string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	problems, families, samples, err := live.LintExposition(f)
	if err != nil {
		return nil, "", err
	}
	summary = fmt.Sprintf("tracecheck: %s: metrics exposition — %d families, %d samples, %d problems",
		path, families, samples, len(problems))
	return problems, summary, nil
}

// checkCheckpoint validates a .ssnap checkpoint file: exactly one
// CRC-verified FrameCheckpoint frame whose payload resumes into an
// executor (the full codec decode, not just the framing).
func checkCheckpoint(path string) (problems []string, summary string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	r := bytes.NewReader(data)
	typ, payload, err := snapshot.ReadFrame(r)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if typ != snapshot.FrameCheckpoint {
		problems = append(problems, fmt.Sprintf("leading frame has type %#x, want checkpoint %#x", typ, snapshot.FrameCheckpoint))
	}
	if r.Len() > 0 {
		problems = append(problems, fmt.Sprintf("%d trailing bytes after the checkpoint frame", r.Len()))
	}
	states := 0
	if len(problems) == 0 {
		ex, rerr := symexec.ResumeExecutor(payload, symexec.Options{})
		if rerr != nil {
			problems = append(problems, fmt.Sprintf("checkpoint payload does not decode: %v", rerr))
		} else {
			states = ex.Pending()
		}
	}
	summary = fmt.Sprintf("tracecheck: %s: checkpoint — %d bytes, %d pending states, %d problems",
		path, len(data), states, len(problems))
	return problems, summary, nil
}

// checkDispatchLog validates a coordinator's -dispatch-log JSONL audit
// trail: every line parses as a core.DispatchEvent with a known event name
// and a timestamp, and each run in the file (the log appends across runs)
// ends with exactly one merge line.
func checkDispatchLog(path string) (problems []string, summary string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	flag := func(format string, args ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	lines, merges := 0, 0
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev core.DispatchEvent
		if jerr := json.Unmarshal(sc.Bytes(), &ev); jerr != nil {
			flag("line %d: not valid JSON: %v", lines, jerr)
			continue
		}
		if !core.KnownDispatchEvents[ev.Event] {
			flag("line %d: unknown dispatch event %q", lines, ev.Event)
			continue
		}
		if ev.T.IsZero() {
			flag("line %d: missing timestamp", lines)
		}
		if ev.Rank < 0 {
			flag("line %d: negative rank %d", lines, ev.Rank)
		}
		counts[ev.Event]++
		if ev.Event == "merge" {
			merges++
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, "", serr
	}
	if merges == 0 {
		flag("no merge line: every completed run must record its merge")
	}
	summary = fmt.Sprintf("tracecheck: %s: dispatch log — %d lines, %d steals, %d local, %d redispatched, %d merges, %d problems",
		path, lines, counts["steal"], counts["local"], counts["redispatch"], merges, len(problems))
	return problems, summary, nil
}

// storeKind pairs a segment-store kind with its deep segment check.
type storeKind struct {
	kind  *corpus.Kind
	check func(path string) (*corpus.SegmentReport, error)
}

var (
	traceStore = storeKind{corpus.TraceKind, corpus.VerifySegmentFile}
	cacheStore = storeKind{persist.CacheKind, persist.VerifySegmentFile}
)

// checkSegment deep-validates one segment file of either store kind: block
// CRCs and a full record decode, plus the kind's own record checks (for
// solver-cache entries: digest recompute, model check, digest ordering). A
// torn segment surfaces as an open error (non-zero exit), corruption as
// problems.
func checkSegment(path string, k storeKind) (problems []string, summary string, err error) {
	rep, err := k.check(path)
	if err != nil {
		return nil, "", err
	}
	summary = fmt.Sprintf("tracecheck: %s: %s segment — %d blocks, %s, %d bytes, %d problems",
		path, k.kind.Label, rep.Blocks, k.kind.Counts(rep.SegmentInfo), rep.Bytes, len(rep.Problems))
	return rep.Problems, summary, nil
}

// checkStore validates a whole store directory of either kind: every
// manifested segment plus manifest/footer agreement and stray-file
// detection.
func checkStore(dir string, k storeKind) (problems []string, summary string, err error) {
	s, err := corpus.OpenStore(k.kind, dir, nil)
	if err != nil {
		return nil, "", err
	}
	rep, err := s.VerifyWith(k.check)
	if err != nil {
		return nil, "", err
	}
	return rep.AllProblems(), fmt.Sprintf("tracecheck: %s: %s store — %s", dir, k.kind.Label, rep.Summary()), nil
}

func check(path string) (problems []string, summary string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()

	flag := func(format string, args ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}

	opened := map[int64]obs.Event{} // still-open spans
	closed := map[int64]bool{}
	counts := map[string]int{}
	lines := 0

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		line := sc.Bytes()
		if len(line) == 0 {
			flag("line %d: empty", lines)
			continue
		}
		var ev obs.Event
		if jerr := json.Unmarshal(line, &ev); jerr != nil {
			flag("line %d: not valid JSON: %v", lines, jerr)
			continue
		}
		counts[ev.Type]++
		if ev.Time.IsZero() {
			flag("line %d: missing timestamp", lines)
		}
		switch ev.Type {
		case obs.EventSpanOpen:
			if ev.Span == 0 {
				flag("line %d: span.open without a span ID", lines)
				continue
			}
			if _, dup := opened[ev.Span]; dup || closed[ev.Span] {
				flag("line %d: span %d opened twice", lines, ev.Span)
			}
			if ev.Parent != 0 {
				if _, ok := opened[ev.Parent]; !ok {
					flag("line %d: span %d has unknown parent %d", lines, ev.Span, ev.Parent)
				}
			}
			opened[ev.Span] = ev
		case obs.EventSpanClose:
			open, ok := opened[ev.Span]
			if !ok {
				flag("line %d: span %d closed without an open", lines, ev.Span)
				continue
			}
			if open.Name != ev.Name {
				flag("line %d: span %d closes as %q but opened as %q", lines, ev.Span, ev.Name, open.Name)
			}
			if ev.DurUS < 0 {
				flag("line %d: span %d has negative duration", lines, ev.Span)
			}
			delete(opened, ev.Span)
			closed[ev.Span] = true
		case obs.EventProgress, obs.EventWarn:
			if ev.Span != 0 && !closed[ev.Span] {
				if _, ok := opened[ev.Span]; !ok {
					flag("line %d: %s on unknown span %d", lines, ev.Type, ev.Span)
				}
			}
		case obs.EventDispatch:
			// Scheduling decisions carry no span; nothing structural to pin.
		default:
			flag("line %d: unknown event type %q", lines, ev.Type)
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, "", serr
	}
	for id, ev := range opened {
		flag("span %d (%s) never closed", id, ev.Name)
	}
	summary = fmt.Sprintf("tracecheck: %s: %d lines — %d span pairs, %d progress, %d warn, %d problems",
		path, lines, counts[obs.EventSpanClose], counts[obs.EventProgress], counts[obs.EventWarn], len(problems))
	return problems, summary, nil
}
