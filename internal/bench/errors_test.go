package bench

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestUnknownAppErrors(t *testing.T) {
	if _, err := Table5(context.Background(), "nope", 10, 1); err == nil {
		t.Error("Table5 accepted unknown app")
	}
	if _, _, err := Figure8("nope"); err == nil {
		t.Error("Figure8 accepted unknown app")
	}
	if _, err := Figure9(context.Background(), "nope", 1); err == nil {
		t.Error("Figure9 accepted unknown app")
	}
	if _, err := Figure10(context.Background(), []string{"nope"}, []float64{0.3}, 1); err == nil {
		t.Error("Figure10 accepted unknown app")
	}
	if _, err := AblationTau(context.Background(), "nope", nil, 1, DefaultBudgets()); err == nil {
		t.Error("AblationTau accepted unknown app")
	}
}

func TestFormatTable4FailureRendering(t *testing.T) {
	rows := []Table4Row{
		{
			Program:     "demo",
			GuidedPaths: 3,
			GuidedTime:  12 * time.Millisecond,
			GuidedFound: true,
			PurePaths:   999,
			PureTime:    5 * time.Second,
			PureFailed:  true,
		},
		{
			Program:     "demo2",
			GuidedFound: false,
			PureFound:   false,
			PureFailed:  false,
		},
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "Failed") {
		t.Errorf("failed pure run not rendered:\n%s", out)
	}
	if !strings.Contains(out, "NOT FOUND") {
		t.Errorf("guided miss not rendered:\n%s", out)
	}
	if !strings.Contains(out, "no vuln") {
		t.Errorf("clean pure completion not rendered:\n%s", out)
	}
}

func TestFormatAblationFailedRendering(t *testing.T) {
	out := FormatAblation("T", []AblationRow{
		{Program: "p", Config: "c", Failed: true, Paths: 7},
		{Program: "p", Config: "d", Found: true},
	})
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "true") {
		t.Errorf("ablation rendering:\n%s", out)
	}
}

func TestDefaultBudgetsSane(t *testing.T) {
	b := DefaultBudgets()
	if b.PureMaxStates <= 0 || b.PureMaxSteps <= 0 || b.PureTimeout <= 0 {
		t.Errorf("budgets = %+v", b)
	}
	if b.Guided.PerCandidateTimeout <= 0 || b.Guided.PerCandidateMaxSteps <= 0 {
		t.Errorf("budgets = %+v", b)
	}
}
