package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleRows() []AblationRow {
	return []AblationRow{
		{Program: "polymorph", Config: "calls=interpret", Found: true, Paths: 2, Steps: 9482, Elapsed: 2 * time.Millisecond},
		{Program: "polymorph", Config: "calls=summarize", Found: true, Paths: 2, Steps: 9482, Elapsed: time.Millisecond, SummaryCalls: 3, SummaryHits: 2, SummaryMined: 1},
		{Program: "thttpd", Config: "tau=10", Found: true, Paths: 4, Steps: 20000, Elapsed: 5 * time.Millisecond},
	}
}

// TestLedgerRoundTrip: write a ledger, read it back as a baseline, and
// compare it against itself — zero regressions.
func TestLedgerRoundTrip(t *testing.T) {
	rows := LedgerFromRows(sampleRows())
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := WriteLedger(path, Ledger{Title: "t", Seed: 1, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", rows, back)
	}
	if regs := CompareLedger(back, rows, DefaultStepsTolerance); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %+v", regs)
	}
}

// TestCompareLedgerFlagsRegressions injects each regression class.
func TestCompareLedgerFlagsRegressions(t *testing.T) {
	base := LedgerFromRows(sampleRows())
	tol := DefaultStepsTolerance

	metricOf := func(regs []Regression) map[string]bool {
		m := map[string]bool{}
		for _, r := range regs {
			m[r.Metric] = true
		}
		return m
	}

	// Steps blown past the tolerance.
	cur := LedgerFromRows(sampleRows())
	cur[0].Steps = cur[0].Steps * 2
	if m := metricOf(CompareLedger(base, cur, tol)); !m["steps"] {
		t.Error("2x steps not flagged")
	}
	// Within tolerance: +5% is fine at the 10% default.
	cur = LedgerFromRows(sampleRows())
	cur[0].Steps = cur[0].Steps * 105 / 100
	if regs := CompareLedger(base, cur, tol); len(regs) != 0 {
		t.Errorf("+5%% steps flagged: %+v", regs)
	}
	// Lost detection.
	cur = LedgerFromRows(sampleRows())
	cur[1].Found = false
	if m := metricOf(CompareLedger(base, cur, tol)); !m["found"] {
		t.Error("lost detection not flagged")
	}
	// Newly failing.
	cur = LedgerFromRows(sampleRows())
	cur[2].Failed = true
	if m := metricOf(CompareLedger(base, cur, tol)); !m["failed"] {
		t.Error("new failure not flagged")
	}
	// Missing row.
	cur = LedgerFromRows(sampleRows())[:2]
	if m := metricOf(CompareLedger(base, cur, tol)); !m["missing"] {
		t.Error("missing row not flagged")
	}
	// Wall time is never flagged.
	cur = LedgerFromRows(sampleRows())
	cur[0].SymMS = base[0].SymMS * 10
	if regs := CompareLedger(base, cur, tol); len(regs) != 0 {
		t.Errorf("time flagged: %+v", regs)
	}
}

// TestReadBaselineRejectsNonLedger: a file without the ledger schema,
// here the sectioned shape of BENCH_pr6.json, is an error that names the
// schema, never an empty or partial baseline.
func TestReadBaselineRejectsNonLedger(t *testing.T) {
	sectioned := `{
  "pr": 6,
  "title": "whatever",
  "machine": {"goos": "linux", "note": "prose"},
  "summaries_ablation": {
    "note": "prose",
    "rows": [
      {"program": "polymorph", "config": "calls=interpret", "found": true, "paths": 2, "steps": 9482, "sym_ms": 1.9}
    ]
  }
}`
	path := filepath.Join(t.TempDir(), "BENCH_sectioned.json")
	if err := os.WriteFile(path, []byte(sectioned), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadBaseline(path)
	if err == nil {
		t.Fatalf("sectioned file read as a baseline: %+v", rows)
	}
	if !strings.Contains(err.Error(), LedgerSchema) {
		t.Errorf("error %q does not name %s", err, LedgerSchema)
	}
}

// TestReadBaselineGateLedger reads the checked-in push gate,
// BENCH_gate.json: the summaries, solvercache and dispatch rows, each
// key once.
func TestReadBaselineGateLedger(t *testing.T) {
	rows, err := ReadBaseline("../../BENCH_gate.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 38 {
		t.Errorf("%d rows, want 38", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Key()] {
			t.Errorf("duplicate row %s", r.Key())
		}
		seen[r.Key()] = true
	}
	want := []string{"dispatch", "solvercache", "summaries"}
	if got := AblationsNeeded(rows); !reflect.DeepEqual(got, want) {
		t.Errorf("AblationsNeeded = %v, want %v", got, want)
	}
}

// TestAblationFor pins the config→ablation mapping the -baseline flow
// depends on.
func TestAblationFor(t *testing.T) {
	cases := map[string]string{
		"pure/bfs":            "scheduler",
		"statsym":             "scheduler",
		"guided/full":         "guidance",
		"guided/inter-only":   "guidance",
		"tau=10":              "tau",
		"solver-cache=on":     "cache",
		"guided/workers=4":    "frontier",
		"pure-bfs/workers=2":  "frontier",
		"calls=interpret":     "summaries",
		"calls=summarize":     "summaries",
		"store/json-blob":     "",
		"something-unrelated": "",
	}
	for config, want := range cases {
		if got := ablationFor(config); got != want {
			t.Errorf("ablationFor(%q) = %q, want %q", config, got, want)
		}
	}
}
