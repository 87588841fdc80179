package main

import (
	"math"
	"testing"
	"time"
)

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		value, pct float64
		label      string
	}{
		{40, 30, 75, "p75 of 40 (10 beyond)"},
		{20, 10, 50, "p50 of 20 (10 beyond)"},
		{320, 310, 96.875, "p96.9 of 320 (10 beyond)"},
		{11, 1, 100.0 / 11, "p9.1 of 11 (10 beyond)"},
	}
	for _, c := range cases {
		got, err := tail(seq(c.n))
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if got.Value != c.value || math.Abs(got.Percentile-c.pct) > 1e-9 || got.Samples != c.n || got.Beyond != TailBeyond {
			t.Errorf("n=%d: got %+v, want value %v at p%v with %d beyond", c.n, got, c.value, c.pct, TailBeyond)
		}
		if got.Label() != c.label {
			t.Errorf("n=%d: label %q, want %q", c.n, got.Label(), c.label)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, err := tail(seq(n)); err == nil {
			t.Errorf("n=%d: want an error, no percentile has %d samples beyond", n, TailBeyond)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.2, 1.0, 2.5}, [3]float64{1.0, 2.5, 3.2}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.41, 0.52, 0.38, 0.47, 0.55, 0.49, 0.44, 0.50, 0.43, 0.46}, [3]float64{0.425, 0.465, 0.505}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("one value: want an error")
	}
}

func TestSelfTimeSubtractsNestedAndOverlappingChildren(t *testing.T) {
	// job   [0,100]
	//   stats  [10,40]      verify [30,60] overlaps stats
	//     pathid [15,20]    (nested in stats)
	//   report [90,120]     extends past the parent; clipped for the parent
	spans := []Span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stats", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "verify", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "pathid", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "report", Start: 90, End: 120},
		{ID: 6, Name: "job", Start: 200, End: 210}, // a second root of the same name
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"job":    100 - (50 + 10) + 10, // children cover [10,60] and [90,100]
		"stats":  30 - 5,
		"verify": 30,
		"pathid": 5,
		"report": 30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %v, want exactly %v", got, want)
	}

	if _, err := selfTimes([]Span{{ID: 1, Name: "job", Start: 5, End: -1}}); err == nil {
		t.Error("unclosed span: want an error")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	var none *Recorder
	if id := none.Begin("job", 0, 1); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	none.End(0)

	r := newRecorder()
	job := r.Begin("job", 0, 7)
	child := r.Begin("stats", job, 7)
	r.End(child)
	r.Add("queue", job, 7, r.epoch.Add(time.Millisecond), r.epoch.Add(2*time.Millisecond))
	r.End(job)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start || s.Job != 7 {
			t.Errorf("bad span %+v", s)
		}
	}
	if spans[1].Parent != job || spans[2].Parent != job || spans[2].End-spans[2].Start != int64(time.Millisecond) {
		t.Errorf("parents or synthesized bounds wrong: %+v", spans)
	}
}
