package stats

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

// The slice-based predicate builder below is the reference the streaming
// builder (buildPredicateDist) is held to: it keeps every raw sample and
// scans thresholds over sorted slices, the direct reading of Eq. 1 and
// Eq. 2.

// sampleSet accumulates a variable's observed values at one location.
type sampleSet struct {
	loc      trace.Location
	name     string
	class    trace.VarClass
	isString bool
	correct  []int64
	faulty   []int64
}

// analyzeSlices is the slice-based reference analysis: it collects every
// raw sample per (location, variable) and builds each predicate with
// buildPredicate — steps (a)–(d) of the algorithm in Fig. 5.
func analyzeSlices(corpus *trace.Corpus) *Analysis {
	a := &Analysis{}
	a.Runs, a.Locations, a.Variables = corpus.Counts()

	// Step (a)/(b): split runs and accumulate numeric samples per
	// (location, variable).
	samples := make(map[string]*sampleSet)
	order := make([]string, 0, 64) // deterministic iteration
	collect := func(run *trace.Run, faulty bool) {
		for _, rec := range run.Records {
			for _, ob := range rec.Obs {
				key := rec.Loc.String() + "/" + ob.Var
				ss, ok := samples[key]
				if !ok {
					ss = &sampleSet{
						loc:      rec.Loc,
						name:     ob.Var,
						class:    ob.Class,
						isString: ob.Kind == trace.ValueString,
					}
					samples[key] = ss
					order = append(order, key)
				}
				if faulty {
					ss.faulty = append(ss.faulty, ob.Numeric())
				} else {
					ss.correct = append(ss.correct, ob.Numeric())
				}
			}
		}
	}
	for i := range corpus.Runs {
		run := &corpus.Runs[i]
		collect(run, run.Faulty)
	}

	// Step (c): construct one predicate per (location, variable). Each
	// sample set is independent, so construction fans out over a bounded
	// worker pool; results land in a slice indexed by first-seen key order,
	// and the stable sort below sees exactly the sequence the sequential
	// loop produced — the ranked output is byte-identical either way.
	built := buildParallel(len(order), func(i int) *Predicate {
		return buildPredicate(samples[order[i]])
	})
	for _, p := range built {
		if p != nil {
			a.Predicates = append(a.Predicates, p)
		}
	}

	// Step (d): rank for determinism.
	rankPredicates(a.Predicates)
	return a
}

// buildPredicate constructs the optimal threshold predicate for one
// sample set by minimizing the quantification error
// E = |P ∩ C| + |Pᶜ ∩ F| (Eq. 1) over all candidate thresholds and both
// directions, then scores it with Eq. 2.
func buildPredicate(ss *sampleSet) *Predicate {
	nc, nf := len(ss.correct), len(ss.faulty)
	if nc == 0 && nf == 0 {
		return nil
	}
	base := &Predicate{
		Loc:      ss.loc,
		Var:      ss.name,
		Class:    ss.class,
		IsString: ss.isString,
		CountC:   nc,
		CountF:   nf,
	}
	if nf == 0 {
		// The location is only reached by correct executions — the
		// predicate is unsatisfiable in faulty runs ("< -infinity",
		// Table V P7–P10). P(x|C)=0 and P(x|F) is vacuously 1.
		base.Op = PredNever
		base.Score = 1.0
		base.Err = 0
		return base
	}
	if nc == 0 {
		// Only faulty runs reach here; any always-true predicate
		// separates perfectly. Use value ≥ min(F) − ½ to stay informative.
		minF := ss.faulty[0]
		for _, v := range ss.faulty {
			if v < minF {
				minF = v
			}
		}
		base.Op = PredGe
		base.Threshold = float64(minF) - 0.5
		base.Score = 1.0
		base.Err = 0
		return base
	}

	c := append([]int64(nil), ss.correct...)
	f := append([]int64(nil), ss.faulty...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	sort.Slice(f, func(i, j int) bool { return f[i] < f[j] })

	// Candidate thresholds: midpoints between adjacent distinct values of
	// the merged sample.
	merged := make([]int64, 0, len(c)+len(f))
	merged = append(merged, c...)
	merged = append(merged, f...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	thresholds := make([]float64, 0, len(merged))
	for i := 1; i < len(merged); i++ {
		if merged[i] != merged[i-1] {
			thresholds = append(thresholds, float64(merged[i-1])+float64(merged[i]-merged[i-1])/2)
		}
	}
	if len(thresholds) == 0 {
		// All values identical: no separating threshold exists; the best
		// predicate is uninformative (score 0, covered by a degenerate
		// ≥ threshold just below the common value).
		base.Op = PredGe
		base.Threshold = float64(merged[0]) - 0.5
		base.Score = 0
		base.Err = nc // every correct sample satisfies it
		return base
	}

	countGE := func(sorted []int64, t float64) int {
		// Number of values v with float64(v) >= t.
		idx := sort.Search(len(sorted), func(i int) bool { return float64(sorted[i]) >= t })
		return len(sorted) - idx
	}

	bestErr := math.MaxInt
	var bestOp PredOp
	var bestT float64
	for _, t := range thresholds {
		cGE := countGE(c, t)
		fGE := countGE(f, t)
		// Direction x = {a ≥ t}: E = |C ∩ P| + |F ∩ Pᶜ|.
		if e := cGE + (nf - fGE); e < bestErr {
			bestErr, bestOp, bestT = e, PredGe, t
		}
		// Direction x = {a ≤ t}: E = |C ∩ P| + |F ∩ Pᶜ|.
		if e := (nc - cGE) + fGE; e < bestErr {
			bestErr, bestOp, bestT = e, PredLe, t
		}
	}
	base.Op = bestOp
	base.Threshold = bestT
	base.Err = bestErr

	// Eq. 2: score = |P(x|C) − P(x|F)|.
	cGE := countGE(c, bestT)
	fGE := countGE(f, bestT)
	var pc, pf float64
	if bestOp == PredGe {
		pc = float64(cGE) / float64(nc)
		pf = float64(fGE) / float64(nf)
	} else {
		pc = float64(nc-cGE) / float64(nc)
		pf = float64(nf-fGE) / float64(nf)
	}
	base.Score = math.Abs(pc - pf)
	return base
}

// randomCorpus generates a corpus over a few locations and variables of
// every class, with repeated and distinct values, string-valued
// variables, and locations only one class of run reaches.
func randomCorpus(rng *rand.Rand) *trace.Corpus {
	locs := []trace.Location{
		{Func: "main", Kind: trace.EventEnter},
		{Func: "f", Kind: trace.EventEnter},
		{Func: "f", Kind: trace.EventLeave},
		{Func: "g", Kind: trace.EventEnter},
	}
	vars := []struct {
		name  string
		class trace.VarClass
		str   bool
	}{
		{"n", trace.ClassParam, false},
		{"s", trace.ClassParam, true},
		{"count", trace.ClassGlobal, false},
		{"ret", trace.ClassReturn, false},
	}
	spread := 1 + rng.Intn(40)
	c := &trace.Corpus{Program: "t"}
	runs := 1 + rng.Intn(60)
	for id := 0; id < runs; id++ {
		faulty := rng.Intn(2) == 0
		run := trace.Run{ID: id, Faulty: faulty}
		for li, loc := range locs {
			// g is reached by correct runs only, f's exit by faulty only.
			if (li == 3 && faulty) || (li == 2 && !faulty) || rng.Intn(4) == 0 {
				continue
			}
			rec := trace.Record{Loc: loc}
			for _, v := range vars {
				if rng.Intn(3) == 0 {
					continue
				}
				x := int64(rng.Intn(spread))
				if faulty {
					x += int64(rng.Intn(spread/2 + 1))
				}
				ob := trace.Observation{Var: v.name, Class: v.class, Kind: trace.ValueInt, Int: x}
				if v.str {
					ob.Kind, ob.Int = trace.ValueString, 0
					ob.Str = string(make([]byte, x))
				}
				rec.Obs = append(rec.Obs, ob)
			}
			run.Records = append(run.Records, rec)
		}
		c.Runs = append(c.Runs, run)
	}
	return c
}

// TestStreamBuilderMatchesSliceOracle pins the production predicate
// builder to the slice-based reference on random corpora: the same
// predicates, field for field, in the same ranking — including with the
// value sketches forced into their raw-sample fallback.
func TestStreamBuilderMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		c := randomCorpus(rng)
		want := analyzeSlices(c)
		for _, opts := range []StreamOpts{{}, {MaxDistinct: 1 + rng.Intn(4)}} {
			got, err := AnalyzeStream(context.Background(), c.Iter(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Runs != want.Runs || got.Locations != want.Locations || got.Variables != want.Variables {
				t.Fatalf("trial %d (%+v): counts (%d,%d,%d), oracle (%d,%d,%d)", trial, opts,
					got.Runs, got.Locations, got.Variables, want.Runs, want.Locations, want.Variables)
			}
			if !reflect.DeepEqual(got.Predicates, want.Predicates) {
				t.Fatalf("trial %d (%+v): predicates diverged from the slice oracle:\n got  %v\n want %v",
					trial, opts, got.Predicates, want.Predicates)
			}
		}
	}
}
