// Package report renders a StatSym pipeline run as a self-contained HTML
// document: corpus statistics, ranked predicates, the transition skeleton
// and candidate paths, per-candidate exploration outcomes, and the
// verified vulnerable path with its constraints and witness. The artifact
// is what an engineer would attach to a bug ticket.
package report

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/symexec"
)

// Model is the template input assembled from a pipeline report.
type Model struct {
	Program     string
	GeneratedAt string

	Runs, Locations, Variables int
	LogKB                      int
	StatTime, SymTime          string

	// Phases is the per-phase wall-time breakdown (monitor / statistical
	// analysis / symbolic execution); the monitor row is present only when
	// the caller measured collection (reports built from a loaded corpus
	// have no monitor phase).
	Phases []PhaseRow

	// Solver totals across every attempt, with the constraint-cache hit
	// rate (empty when no solver query ran).
	SolverTime string
	CacheHits  int
	CacheRate  string

	Predicates []PredicateRow
	Skeleton   []string
	Candidates []CandidateRow
	Attempts   []AttemptRow

	// Metrics is the flattened registry snapshot, present only when the
	// run was traced with -metrics (WriteHTMLWithMetrics).
	Metrics []MetricRow

	Found         bool
	VulnKind      string
	VulnFunc      string
	VulnPos       string
	Path          []string
	Constraints   []string
	WitnessInts   map[string]int64
	WitnessStrs   map[string]string
	WitnessEnv    map[string]string
	WitnessArgs   []string
	CandidateUsed int
	TotalPaths    int
}

// PredicateRow is one ranked predicate.
type PredicateRow struct {
	Rank     int
	Text     string
	Location string
	Score    string
}

// CandidateRow is one candidate path.
type CandidateRow struct {
	Rank    int
	Len     int
	Detours int
	Score   string
	Nodes   string
}

// AttemptRow is one guided exploration attempt.
type AttemptRow struct {
	Index        int
	Status       string
	Paths        int
	Steps        int64
	SolverChecks int
	CacheHits    int
	CompReused   int
	CacheMisses  int
	SolverTime   string
	Elapsed      string
}

// PhaseRow is one pipeline phase's wall time.
type PhaseRow struct {
	Phase string
	Time  string
}

// MetricRow is one registry entry from a traced run.
type MetricRow struct {
	Name  string
	Value int64
}

// Build assembles the template model from a pipeline report. now is
// rendered verbatim (callers pass time.Now().Format(...) so tests can pin
// it).
func Build(rep *core.Report, now string) *Model {
	m := &Model{
		Program:     rep.Program,
		GeneratedAt: now,
		Runs:        rep.Runs,
		Locations:   rep.Locations,
		Variables:   rep.Variables,
		LogKB:       rep.LogBytes / 1024,
		StatTime:    rep.StatTime.Round(time.Microsecond).String(),
		SymTime:     rep.SymTime.Round(time.Microsecond).String(),
	}
	if rep.MonTime > 0 {
		m.Phases = append(m.Phases, PhaseRow{"log collection (monitor)", rep.MonTime.Round(time.Microsecond).String()})
	}
	m.Phases = append(m.Phases,
		PhaseRow{"statistical analysis", m.StatTime},
		PhaseRow{"symbolic execution", m.SymTime})
	if queries := rep.CacheHits + rep.CacheMisses; queries > 0 {
		m.SolverTime = rep.SolverTime.Round(time.Microsecond).String()
		m.CacheHits = rep.CacheHits
		m.CacheRate = fmt.Sprintf("%.1f%%", 100*float64(rep.CacheHits)/float64(queries))
		m.Phases = append(m.Phases, PhaseRow{"└ constraint solving", m.SolverTime})
	}
	for i, p := range rep.Analysis.Top(15) {
		m.Predicates = append(m.Predicates, PredicateRow{
			Rank:     i + 1,
			Text:     p.String(),
			Location: p.Loc.String(),
			Score:    fmt.Sprintf("%.3f", p.Score),
		})
	}
	if rep.PathRes != nil {
		for _, l := range rep.PathRes.Skeleton {
			m.Skeleton = append(m.Skeleton, l.String())
		}
		for i, cand := range rep.PathRes.Candidates {
			m.Candidates = append(m.Candidates, CandidateRow{
				Rank:    i + 1,
				Len:     cand.Len(),
				Detours: cand.Detours,
				Score:   fmt.Sprintf("%.3f", cand.AvgScore),
				Nodes:   cand.String(),
			})
		}
	}
	for _, a := range rep.Candidates {
		status := "no vulnerability"
		switch {
		case a.Found:
			status = "vulnerable path found"
		case a.Cancelled:
			status = "cancelled"
		case a.Infeasible:
			status = "infeasible / abandoned"
		}
		m.Attempts = append(m.Attempts, AttemptRow{
			Index:        a.Index,
			Status:       status,
			Paths:        a.Paths,
			Steps:        a.Steps,
			SolverChecks: a.SolverChecks,
			CacheHits:    a.CacheHits,
			CompReused:   a.CompReused,
			CacheMisses:  a.CacheMisses,
			SolverTime:   a.SolverTime.Round(time.Microsecond).String(),
			Elapsed:      a.Elapsed.Round(time.Microsecond).String(),
		})
	}
	if rep.Found() {
		m.fillVuln(rep.Vuln)
		m.CandidateUsed = rep.CandidateUsed
		m.TotalPaths = rep.TotalPaths
	}
	return m
}

func (m *Model) fillVuln(v *symexec.Vulnerability) {
	m.Found = true
	m.VulnKind = v.Kind.String()
	m.VulnFunc = v.Func
	m.VulnPos = v.Pos.String()
	for _, loc := range v.Path {
		m.Path = append(m.Path, loc.String())
	}
	limit := len(v.Constraints)
	if limit > 40 {
		limit = 40
	}
	for _, c := range v.Constraints[:limit] {
		m.Constraints = append(m.Constraints, c.String(nil))
	}
	if v.Witness != nil {
		m.WitnessInts = v.Witness.Ints
		m.WitnessStrs = map[string]string{}
		for k, s := range v.Witness.Strs {
			m.WitnessStrs[k] = summarize(s)
		}
		m.WitnessEnv = map[string]string{}
		for k, s := range v.Witness.Env {
			m.WitnessEnv[k] = summarize(s)
		}
		for _, a := range v.Witness.Args {
			m.WitnessArgs = append(m.WitnessArgs, summarize(a))
		}
	}
}

func summarize(s string) string {
	if len(s) <= 64 {
		return s
	}
	return fmt.Sprintf("%s… (%d bytes)", s[:48], len(s))
}

var page = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>StatSym report — {{.Program}}</title>
<style>
 body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1a1a1a; }
 h1 { border-bottom: 3px solid #b00; padding-bottom: .3rem; }
 h2 { margin-top: 2rem; border-bottom: 1px solid #ccc; }
 table { border-collapse: collapse; width: 100%; font-size: .9rem; }
 th, td { border: 1px solid #ddd; padding: .35rem .6rem; text-align: left; }
 th { background: #f4f4f4; }
 code, .mono { font-family: ui-monospace, monospace; font-size: .85rem; }
 .found { color: #b00; font-weight: 700; }
 .chip { background: #eee; border-radius: 4px; padding: 0 .4rem; margin-right: .3rem; }
 ol.path li { font-family: ui-monospace, monospace; font-size: .85rem; }
</style>
</head>
<body>
<h1>StatSym report — {{.Program}}</h1>
<p>Generated {{.GeneratedAt}}.
<span class="chip">{{.Runs}} runs</span>
<span class="chip">{{.Locations}} locations</span>
<span class="chip">{{.Variables}} variables</span>
<span class="chip">{{.LogKB}} KB logs</span>
<span class="chip">statistical analysis {{.StatTime}}</span>
<span class="chip">symbolic execution {{.SymTime}}</span>
{{if .CacheRate}}<span class="chip">solver cache {{.CacheRate}}</span>{{end}}
</p>

<h2>Phase timing</h2>
<table><tr><th>phase</th><th>wall time</th></tr>
{{range .Phases}}<tr><td>{{.Phase}}</td><td class="mono">{{.Time}}</td></tr>{{end}}
</table>

{{if .Found}}
<h2 class="found">Vulnerable path found: {{.VulnKind}} in {{.VulnFunc}} (at {{.VulnPos}})</h2>
<p>Verified with candidate path {{.CandidateUsed}} after exploring {{.TotalPaths}} paths.</p>
<h3>Path</h3>
<ol class="path">{{range .Path}}<li>{{.}}</li>{{end}}</ol>
<h3>Path constraints</h3>
<p class="mono">{{range .Constraints}}{{.}}<br>{{end}}</p>
<h3>Witness input</h3>
<table><tr><th>channel</th><th>value</th></tr>
{{range $k, $v := .WitnessInts}}<tr><td>int {{$k}}</td><td class="mono">{{$v}}</td></tr>{{end}}
{{range $k, $v := .WitnessStrs}}<tr><td>string {{$k}}</td><td class="mono">{{$v}}</td></tr>{{end}}
{{range $k, $v := .WitnessEnv}}<tr><td>env {{$k}}</td><td class="mono">{{$v}}</td></tr>{{end}}
{{if .WitnessArgs}}<tr><td>argv</td><td class="mono">{{range .WitnessArgs}}{{.}} {{end}}</td></tr>{{end}}
</table>
{{else}}
<h2>No vulnerable path verified</h2>
{{end}}

<h2>Top predicates</h2>
<table><tr><th>#</th><th>predicate</th><th>location</th><th>score</th></tr>
{{range .Predicates}}<tr><td>{{.Rank}}</td><td class="mono">{{.Text}}</td><td class="mono">{{.Location}}</td><td>{{.Score}}</td></tr>{{end}}
</table>

<h2>Skeleton</h2>
<ol class="path">{{range .Skeleton}}<li>{{.}}</li>{{end}}</ol>

<h2>Candidate paths</h2>
<table><tr><th>#</th><th>nodes</th><th>detours</th><th>avg score</th><th>path</th></tr>
{{range .Candidates}}<tr><td>{{.Rank}}</td><td>{{.Len}}</td><td>{{.Detours}}</td><td>{{.Score}}</td><td class="mono">{{.Nodes}}</td></tr>{{end}}
</table>

<h2>Exploration attempts</h2>
<table><tr><th>candidate</th><th>status</th><th>paths</th><th>steps</th><th>solver checks</th><th>cache hits</th><th>reused components</th><th>cache misses</th><th>solver time</th><th>time</th></tr>
{{range .Attempts}}<tr><td>{{.Index}}</td><td>{{.Status}}</td><td>{{.Paths}}</td><td>{{.Steps}}</td><td>{{.SolverChecks}}</td><td>{{.CacheHits}}</td><td>{{.CompReused}}</td><td>{{.CacheMisses}}</td><td>{{.SolverTime}}</td><td>{{.Elapsed}}</td></tr>{{end}}
</table>

{{if .Metrics}}
<h2>Metrics</h2>
<table><tr><th>metric</th><th>value</th></tr>
{{range .Metrics}}<tr><td class="mono">{{.Name}}</td><td class="mono">{{.Value}}</td></tr>{{end}}
</table>
{{end}}
</body>
</html>
`))

// WriteHTML renders the pipeline report to w.
func WriteHTML(w io.Writer, rep *core.Report, now string) error {
	return page.Execute(w, Build(rep, now))
}

// WriteHTMLWithMetrics renders the pipeline report plus a flattened
// metrics-registry snapshot (obs.Registry.Snapshot) as an extra section,
// sorted by metric name. A nil or empty snapshot is the same as WriteHTML.
func WriteHTMLWithMetrics(w io.Writer, rep *core.Report, now string, snap map[string]int64) error {
	m := Build(rep, now)
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Metrics = append(m.Metrics, MetricRow{Name: name, Value: snap[name]})
	}
	return page.Execute(w, m)
}

// HTML renders to a string (convenience for tests and callers).
func HTML(rep *core.Report, now string) (string, error) {
	var sb strings.Builder
	if err := WriteHTML(&sb, rep, now); err != nil {
		return "", err
	}
	return sb.String(), nil
}
