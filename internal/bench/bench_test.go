package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// smallBudgets keeps unit tests fast while preserving outcome shapes.
func smallBudgets() Budgets {
	return Budgets{
		PureMaxStates: 5_000,
		PureMaxSteps:  2_000_000,
		PureTimeout:   20 * time.Second,
		Guided: core.Config{
			PerCandidateMaxSteps: 10_000_000,
			PerCandidateTimeout:  20 * time.Second,
		},
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := []string{"polymorph", "ctree", "thttpd", "grep"}
	for i, r := range rows {
		if r.Program != names[i] {
			t.Errorf("row %d = %s, want %s", i, r.Program, names[i])
		}
		if r.Stats.SLOC == 0 || r.Stats.ExternalCalls == 0 {
			t.Errorf("%s: zero stats %+v", r.Program, r.Stats)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "polymorph") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestTableModuleAllFound(t *testing.T) {
	rows, err := TableModule(context.Background(), 0.3, DefaultSeed, smallBudgets())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Found {
			t.Errorf("%s: not found at 30%%", r.Program)
		}
		if r.StatTime <= 0 {
			t.Errorf("%s: stat time not measured", r.Program)
		}
	}
	out := FormatTableModule("TABLE III", rows)
	if !strings.Contains(out, "grep") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(context.Background(), DefaultSeed, smallBudgets())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.GuidedFound {
			t.Errorf("%s: StatSym failed", r.Program)
		}
		switch r.Program {
		case "polymorph":
			if !r.PureFound {
				t.Errorf("polymorph: pure baseline should succeed")
			}
			if r.PurePaths <= r.GuidedPaths {
				t.Errorf("polymorph: pure %d paths vs guided %d — no reduction",
					r.PurePaths, r.GuidedPaths)
			}
		default:
			if r.PureFound {
				t.Errorf("%s: pure baseline unexpectedly succeeded", r.Program)
			}
			if !r.PureFailed {
				t.Errorf("%s: pure baseline neither found nor failed", r.Program)
			}
		}
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "Failed") {
		t.Errorf("Table IV output lacks a Failed row:\n%s", out)
	}
}

func TestTable5Predicates(t *testing.T) {
	lines, err := Table5(context.Background(), "polymorph", 10, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 10 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The top predicate must be a string-length predicate (the paper's
	// P1-P6 pattern).
	if !strings.Contains(lines[0], "len(") {
		t.Errorf("top predicate is not length-based: %s", lines[0])
	}
}

func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NumPaths == 0 {
			t.Errorf("%s: no candidate paths", r.Program)
		}
		if r.MinLen > r.MaxLen || r.AvgLen < float64(r.MinLen) || r.AvgLen > float64(r.MaxLen) {
			t.Errorf("%s: inconsistent lengths %+v", r.Program, r)
		}
	}
	out := FormatFigure7(rows)
	if !strings.Contains(out, "FIGURE 7") {
		t.Error("format header missing")
	}
}

func TestFigure8Polymorph(t *testing.T) {
	locs, vars, err := Figure8("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	// 7 functions x enter+exit = 14 locations.
	if len(locs) != 14 {
		t.Errorf("locations = %d, want 14: %v", len(locs), locs)
	}
	joined := strings.Join(vars, ",")
	for _, want := range []string{"GLOBAL target", "GLOBAL track", "FUNCPARAM original", "FUNCPARAM suspect"} {
		if !strings.Contains(joined, want) {
			t.Errorf("variables missing %q: %v", want, vars)
		}
	}
}

func TestFigure9Polymorph(t *testing.T) {
	lines, err := Figure9(context.Background(), "polymorph", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no candidates")
	}
	if !strings.Contains(lines[0], "convert_fileName():enter") {
		t.Errorf("first candidate misses the fault site: %s", lines[0])
	}
}

func TestFigure10Shape(t *testing.T) {
	rows, err := Figure10(context.Background(), []string{"polymorph"}, []float64{0.2, 1.0}, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Found {
			t.Errorf("not found at %.0f%%", r.Rate*100)
		}
	}
	// Higher sampling => larger logs (the Fig. 10 driver).
	if rows[1].LogBytes <= rows[0].LogBytes {
		t.Errorf("log size did not grow with sampling: %d vs %d",
			rows[0].LogBytes, rows[1].LogBytes)
	}
	out := FormatFigure10(rows)
	if !strings.Contains(out, "FIGURE 10") {
		t.Error("format header missing")
	}
}

func TestAblationGuidanceShape(t *testing.T) {
	rows, err := AblationGuidance(context.Background(), DefaultSeed, smallBudgets())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 apps x 4 configs
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, r := range rows {
		// Configurations with predicate gating must always find the
		// vulnerable path. Without predicates (inter-only / neither),
		// thttpd's defang chase has no length bound to prune with and may
		// exhaust its budget — the honest degradation toward pure
		// symbolic execution.
		hasPredicates := r.Config == "guided/full" || r.Config == "guided/intra-only"
		if hasPredicates && !r.Found {
			t.Errorf("%s/%s: not found", r.Program, r.Config)
		}
		if !r.Found && r.Program != "thttpd" {
			t.Errorf("%s/%s: not found (only thttpd may fail without predicates)",
				r.Program, r.Config)
		}
	}
	out := FormatAblation("ABLATION", rows)
	if !strings.Contains(out, "guided/inter-only") {
		t.Error("ablation output malformed")
	}
}

func TestAblationTauShape(t *testing.T) {
	rows, err := AblationTau(context.Background(), "polymorph", []int{1, 10}, DefaultSeed, smallBudgets())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}
