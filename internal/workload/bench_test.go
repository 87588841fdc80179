package workload

import (
	"testing"

	"repro/internal/apps"
)

// BenchmarkBalancedCorpus measures monitor collection end to end: one
// balanced 100/100 thttpd corpus at the paper's 30% sampling rate, from
// input generation through the concrete VM to the kept runs.
func BenchmarkBalancedCorpus(b *testing.B) {
	app, err := apps.Get("thttpd")
	if err != nil {
		b.Fatal(err)
	}
	app.Program() // compile outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c, err := BuildCorpus(app, Options{SampleRate: 0.3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Runs) != 2*DefaultRuns {
			b.Fatalf("corpus holds %d runs, want %d", len(c.Runs), 2*DefaultRuns)
		}
	}
}
