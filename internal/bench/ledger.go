package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// The run ledger is the benchmark suite's regression memory: every
// benchtab run can serialize its rows as a ledger file, and a later run
// handed that file via -baseline compares itself row by row and exits
// nonzero on regression. A ledger is the only baseline format.

// LedgerSchema identifies ledger files written by WriteLedger.
const LedgerSchema = "statsym.ledger/v1"

// LedgerRow is one (program, config) outcome.
type LedgerRow struct {
	Program string  `json:"program"`
	Config  string  `json:"config"`
	Found   bool    `json:"found"`
	Paths   int     `json:"paths"`
	Steps   int64   `json:"steps"`
	SymMS   float64 `json:"sym_ms"`
	Failed  bool    `json:"failed,omitempty"`

	SummaryCalls int64 `json:"summary_calls,omitempty"`
	CacheHits    int64 `json:"cache_hits,omitempty"`
	Mined        int64 `json:"mined,omitempty"`

	// Persistent solver-cache columns (solvercache ablation rows only).
	PersistLoaded  int64  `json:"persist_loaded,omitempty"`
	PersistHits    int64  `json:"persist_hits,omitempty"`
	PersistSpilled int64  `json:"persist_spilled,omitempty"`
	PersistRejects int64  `json:"persist_rejects,omitempty"`
	Digest         string `json:"digest,omitempty"`
}

// Key identifies the row for baseline matching.
func (r LedgerRow) Key() string { return r.Program + "|" + r.Config }

// Ledger is the on-disk run record.
type Ledger struct {
	Schema string      `json:"schema"`
	Title  string      `json:"title,omitempty"`
	Date   string      `json:"date,omitempty"`
	Seed   int64       `json:"seed,omitempty"`
	Rows   []LedgerRow `json:"rows"`
}

// LedgerFromRows converts ablation rows into ledger rows.
func LedgerFromRows(rows []AblationRow) []LedgerRow {
	out := make([]LedgerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, LedgerRow{
			Program:        r.Program,
			Config:         r.Config,
			Found:          r.Found,
			Paths:          r.Paths,
			Steps:          r.Steps,
			SymMS:          float64(r.Elapsed) / float64(time.Millisecond),
			Failed:         r.Failed,
			SummaryCalls:   int64(r.SummaryCalls),
			CacheHits:      r.SummaryHits,
			Mined:          r.SummaryMined,
			PersistLoaded:  r.PersistLoaded,
			PersistHits:    r.PersistHits,
			PersistSpilled: r.PersistSpilled,
			PersistRejects: r.PersistRejects,
			Digest:         r.Digest,
		})
	}
	return out
}

// WriteLedger serializes the ledger to path (indented JSON).
func WriteLedger(path string, l Ledger) error {
	l.Schema = LedgerSchema
	blob, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadBaseline loads the rows of a ledger written by WriteLedger. Any
// other file, such as the sectioned BENCH_pr*.json notes of early
// changes, is an error naming the schema it lacks.
func ReadBaseline(path string) ([]LedgerRow, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(blob, &l); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if l.Schema != LedgerSchema {
		return nil, fmt.Errorf("baseline %s: schema %q, want %q (write one with benchtab -ledger-out)",
			path, l.Schema, LedgerSchema)
	}
	if len(l.Rows) == 0 {
		return nil, fmt.Errorf("baseline %s: no benchmark rows found", path)
	}
	return l.Rows, nil
}

// ablationFor maps a row's config string to the ablation that produces
// it, so a -baseline run knows which experiments to re-run.
func ablationFor(config string) string {
	switch {
	case strings.HasPrefix(config, "dispatch/"):
		return "dispatch"
	case strings.Contains(config, "workers="):
		return "frontier"
	case strings.HasPrefix(config, "pure/"), config == "statsym":
		return "scheduler"
	case strings.HasPrefix(config, "guided/"):
		return "guidance"
	case strings.HasPrefix(config, "tau="):
		return "tau"
	case strings.HasPrefix(config, "solver-cache="):
		return "cache"
	case strings.HasPrefix(config, "solvercache="):
		return "solvercache"
	case strings.HasPrefix(config, "calls="):
		return "summaries"
	default:
		return ""
	}
}

// AblationsNeeded returns the sorted set of ablation names required to
// reproduce the baseline's rows. Rows whose config maps to no known
// ablation are skipped during comparison instead of failing it.
func AblationsNeeded(rows []LedgerRow) []string {
	set := map[string]bool{}
	for _, r := range rows {
		if a := ablationFor(r.Config); a != "" {
			set[a] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultStepsTolerance is the gate's default step headroom: the current
// step count may exceed the baseline by this fraction (0.10 = +10%)
// before it is flagged. Steps are deterministic for a fixed seed, so the
// headroom only absorbs intentional small shifts; a real search-order
// regression blows well past it. Wall time is never gated here: it
// jitters run to run and across machines.
const DefaultStepsTolerance = 0.10

// Regression is one failed row comparison.
type Regression struct {
	Key    string // program|config
	Metric string // "found", "failed", "steps", "digest", "missing"
	Detail string
}

// CompareLedger checks current rows against the baseline. Every baseline
// row whose config maps to a known ablation must be present and no worse:
// still found, still completing, within stepsPct of the baseline's steps
// and, where both rows carry one, on the same detection digest.
// Comparisons are one-sided, and current-only rows are ignored (new
// configurations are not regressions).
func CompareLedger(baseline, current []LedgerRow, stepsPct float64) []Regression {
	cur := make(map[string]LedgerRow, len(current))
	for _, r := range current {
		cur[r.Key()] = r
	}
	var regs []Regression
	for _, b := range baseline {
		if ablationFor(b.Config) == "" {
			continue
		}
		c, ok := cur[b.Key()]
		if !ok {
			regs = append(regs, Regression{Key: b.Key(), Metric: "missing",
				Detail: "row present in baseline but not produced by this run"})
			continue
		}
		if b.Found && !c.Found {
			regs = append(regs, Regression{Key: b.Key(), Metric: "found",
				Detail: "baseline found the vulnerability, this run did not"})
		}
		if !b.Failed && c.Failed {
			regs = append(regs, Regression{Key: b.Key(), Metric: "failed",
				Detail: "run now fails (resource exhaustion) where the baseline completed"})
		}
		if limit := float64(b.Steps) * (1 + stepsPct); b.Steps > 0 && float64(c.Steps) > limit {
			regs = append(regs, Regression{Key: b.Key(), Metric: "steps",
				Detail: fmt.Sprintf("steps %d exceeds baseline %d by more than %.0f%%",
					c.Steps, b.Steps, stepsPct*100)})
		}
		if b.Digest != "" && c.Digest != "" && b.Digest != c.Digest {
			regs = append(regs, Regression{Key: b.Key(), Metric: "digest",
				Detail: fmt.Sprintf("detection digest %s diverged from baseline %s", c.Digest, b.Digest)})
		}
	}
	return regs
}

// FormatComparison renders the comparison outcome for the CLI.
func FormatComparison(baseline string, nBase, nCur int, regs []Regression) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "REGRESSION GATE: %d baseline rows (%s) vs %d current rows\n", nBase, baseline, nCur)
	if len(regs) == 0 {
		sb.WriteString("  no regressions\n")
		return sb.String()
	}
	for _, r := range regs {
		fmt.Fprintf(&sb, "  REGRESSION %-28s %-8s %s\n", r.Key, r.Metric, r.Detail)
	}
	fmt.Fprintf(&sb, "  %d regression(s)\n", len(regs))
	return sb.String()
}
