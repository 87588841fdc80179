package pathid_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestScoreIndexMatchesLocationScore checks the score index that the
// skeleton search and detour scoring read against its reference,
// Analysis.LocationScore, bit for bit, at every graph node of all six
// apps' seed-1 corpora at sampling rates 0.3 and 1.0.
func TestScoreIndexMatchesLocationScore(t *testing.T) {
	for _, app := range append(apps.All(), apps.Extras()...) {
		for _, rate := range []float64{0.3, 1.0} {
			t.Run(fmt.Sprintf("%s/rate=%.1f", app.Name, rate), func(t *testing.T) {
				c, err := workload.BuildCorpus(app, workload.Options{SampleRate: rate, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				a := stats.Analyze(c)
				scores := pathid.IndexScores(a)
				g := pathid.BuildGraph(c, pathid.Config{})
				if len(g.Nodes) == 0 {
					t.Fatal("empty transition graph")
				}
				for _, loc := range g.Nodes {
					if got, want := scores[loc], a.LocationScore(loc); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: index score %v, LocationScore %v", loc, got, want)
					}
				}
			})
		}
	}
}

// BenchmarkAnalyzeAndBuild prices the two front-ends of a guided job, the
// statistical analysis and candidate-path construction, over one thttpd
// corpus at the paper's 30% sampling rate.
func BenchmarkAnalyzeAndBuild(b *testing.B) {
	app, err := apps.Get("thttpd")
	if err != nil {
		b.Fatal(err)
	}
	c, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		a := stats.Analyze(c)
		res, err := pathid.Build(c, a, pathid.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Candidates) == 0 {
			b.Fatal("no candidate paths")
		}
	}
}
