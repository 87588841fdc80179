package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/workload"
)

func pipelineReport(t *testing.T) *core.Report {
	t.Helper()
	app, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunJob(context.Background(), core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestHTMLReport(t *testing.T) {
	rep := pipelineReport(t)
	html, err := HTML(rep, "2026-07-05 12:00")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<!DOCTYPE html>",
		"StatSym report — polymorph",
		"Vulnerable path found",
		"convert_fileName",
		"Top predicates",
		"Candidate paths",
		"Exploration attempts",
		"Witness input",
		"2026-07-05 12:00",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// html/template escaping: no raw angle brackets from witness bytes
	// should break the document structure (spot check: balanced tags).
	if strings.Count(html, "<table>") != strings.Count(html, "</table>") {
		t.Error("unbalanced tables")
	}
	if strings.Count(html, "<h2") < 4 {
		t.Error("missing sections")
	}
}

func TestBuildModel(t *testing.T) {
	rep := pipelineReport(t)
	m := Build(rep, "now")
	if !m.Found {
		t.Fatal("model not marked found")
	}
	if m.Program != "polymorph" || m.Runs != 200 {
		t.Errorf("header: %+v", m)
	}
	if len(m.Predicates) == 0 || len(m.Skeleton) == 0 || len(m.Candidates) == 0 {
		t.Error("empty sections")
	}
	if m.VulnFunc != "convert_fileName" {
		t.Errorf("vuln func = %s", m.VulnFunc)
	}
	if len(m.Path) == 0 || len(m.Constraints) == 0 {
		t.Error("vulnerable path details missing")
	}
	if m.CandidateUsed < 1 {
		t.Errorf("candidate used = %d", m.CandidateUsed)
	}
}

func TestSummarizeTruncation(t *testing.T) {
	long := strings.Repeat("x", 200)
	s := summarize(long)
	if !strings.Contains(s, "200 bytes") || len(s) > 80 {
		t.Errorf("summarize = %q", s)
	}
	if summarize("short") != "short" {
		t.Error("short strings should pass through")
	}
}
