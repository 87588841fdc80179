package stats

import (
	"context"
	"io"
	"math"
	"sort"

	"repro/internal/trace"
)

// StreamOpts tunes streaming analysis. The zero value uses the defaults.
type StreamOpts struct {
	// MaxDistinct caps each per-(location, variable, class) counting
	// sketch: past this many distinct values the accumulator falls back to
	// an exact raw-sample slice (the sketch's map overhead only pays for
	// itself while values repeat). Both modes are exact, so the analysis
	// output is identical either way; the cap only trades memory layout.
	MaxDistinct int
}

// DefaultMaxDistinct is the sketch cap when StreamOpts.MaxDistinct is zero.
const DefaultMaxDistinct = 1 << 14

func (o StreamOpts) maxDistinct() int {
	if o.MaxDistinct <= 0 {
		return DefaultMaxDistinct
	}
	return o.MaxDistinct
}

// valueCounts accumulates one class's numeric samples for one (location,
// variable) pair: a value→count map while the distinct-value set stays
// under the cap, an exact raw slice after. Either way it represents the
// exact sample multiset — predicate construction depends on nothing else.
type valueCounts struct {
	counts map[int64]int
	raw    []int64
	n      int
}

// add records one sample, returning true on the add that spills the sketch
// to raw mode.
func (v *valueCounts) add(x int64, maxDistinct int) bool {
	if v.raw != nil {
		v.raw = append(v.raw, x)
		v.n++
		return false
	}
	if v.counts == nil {
		v.counts = make(map[int64]int)
	}
	v.counts[x]++
	v.n++
	if len(v.counts) <= maxDistinct {
		return false
	}
	raw := make([]int64, 0, v.n)
	for val, c := range v.counts {
		for i := 0; i < c; i++ {
			raw = append(raw, val)
		}
	}
	v.raw, v.counts = raw, nil
	return true
}

func (v *valueCounts) total() int { return v.n }

// distinct returns the sorted distinct values and their multiplicities.
func (v *valueCounts) distinct() (vals []int64, mult []int) {
	if v.raw != nil {
		sorted := append([]int64(nil), v.raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, x := range sorted {
			if i == 0 || x != vals[len(vals)-1] {
				vals = append(vals, x)
				mult = append(mult, 1)
			} else {
				mult[len(mult)-1]++
			}
		}
		return vals, mult
	}
	vals = make([]int64, 0, len(v.counts))
	for x := range v.counts {
		vals = append(vals, x)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	mult = make([]int, len(vals))
	for i, x := range vals {
		mult[i] = v.counts[x]
	}
	return vals, mult
}

// streamSample accumulates one (location, variable) pair's samples, one
// value sketch per class of run.
type streamSample struct {
	loc      trace.Location
	name     string
	class    trace.VarClass
	isString bool
	correct  valueCounts
	faulty   valueCounts
}

// sampleKey identifies one (location, variable) pair.
type sampleKey struct {
	loc  trace.Location
	name string
}

// StreamAnalyzer consumes runs one at a time and builds the ranked
// predicates while holding only per-(location, variable) value sketches,
// never the runs themselves. It is the package's one predicate builder:
// Analyze (in-memory corpus) and AnalyzeStream (any run iterator) both
// drive it.
type StreamAnalyzer struct {
	opts      StreamOpts
	samples   map[sampleKey]*streamSample
	order     []*streamSample // first seen first
	runs      int
	locs      map[trace.Location]struct{}
	vars      map[string]struct{}
	fallbacks int
}

// NewStreamAnalyzer returns an empty analyzer.
func NewStreamAnalyzer(opts StreamOpts) *StreamAnalyzer {
	return &StreamAnalyzer{
		opts:    opts,
		samples: make(map[sampleKey]*streamSample),
		locs:    make(map[trace.Location]struct{}),
		vars:    make(map[string]struct{}),
	}
}

// Add folds one run into the accumulators. The run is not retained.
func (a *StreamAnalyzer) Add(run *trace.Run) {
	a.runs++
	maxDistinct := a.opts.maxDistinct()
	for _, rec := range run.Records {
		a.locs[rec.Loc] = struct{}{}
		for _, ob := range rec.Obs {
			a.vars[ob.Var] = struct{}{}
			key := sampleKey{loc: rec.Loc, name: ob.Var}
			ss, ok := a.samples[key]
			if !ok {
				ss = &streamSample{
					loc:      rec.Loc,
					name:     ob.Var,
					class:    ob.Class,
					isString: ob.Kind == trace.ValueString,
				}
				a.samples[key] = ss
				a.order = append(a.order, ss)
			}
			var spilled bool
			if run.Faulty {
				spilled = ss.faulty.add(ob.Numeric(), maxDistinct)
			} else {
				spilled = ss.correct.add(ob.Numeric(), maxDistinct)
			}
			if spilled {
				a.fallbacks++
			}
		}
	}
}

// Fallbacks reports how many sketches spilled to exact raw mode.
func (a *StreamAnalyzer) Fallbacks() int { return a.fallbacks }

// Finish builds and ranks the predicates. The analyzer may not be reused.
func (a *StreamAnalyzer) Finish() *Analysis {
	out := &Analysis{Runs: a.runs, Locations: len(a.locs), Variables: len(a.vars)}
	built := buildParallel(len(a.order), func(i int) *Predicate {
		return buildPredicateDist(a.order[i])
	})
	for _, p := range built {
		if p != nil {
			out.Predicates = append(out.Predicates, p)
		}
	}
	rankPredicates(out.Predicates)
	return out
}

// AnalyzeStream runs predicate construction over a run iterator in one
// bounded-memory pass: peak memory is the iterator's block buffer plus the
// value sketches, independent of corpus size. Output depends only on the
// run sequence, never on where the runs live (the internal/corpus
// differentials pin a store against the in-memory corpus it holds).
func AnalyzeStream(ctx context.Context, it trace.RunIterator, opts StreamOpts) (*Analysis, error) {
	a := NewStreamAnalyzer(opts)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a.Add(run)
	}
	return a.Finish(), nil
}

// buildPredicateDist constructs the optimal threshold predicate for one
// sample set by minimizing the quantification error
// E = |P ∩ C| + |Pᶜ ∩ F| (Eq. 1) over all candidate thresholds and both
// directions, then scores it with Eq. 2. It works on the distinct-value
// representation, and every arithmetic step mirrors the slice-based
// reference builder in the tests exactly — thresholds from adjacent
// distinct values, counts via the same float64-compare search, the same
// strict-improvement scan in the same ascending order — so the resulting
// predicate is bit-equal to the reference's, not merely equivalent.
func buildPredicateDist(ss *streamSample) *Predicate {
	nc, nf := ss.correct.total(), ss.faulty.total()
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
	fVals, fMult := ss.faulty.distinct()
	if nc == 0 {
		// Only faulty runs reach here; any always-true predicate
		// separates perfectly. Use value ≥ min(F) − ½ to stay informative.
		base.Op = PredGe
		base.Threshold = float64(fVals[0]) - 0.5
		base.Score = 1.0
		base.Err = 0
		return base
	}
	cVals, cMult := ss.correct.distinct()

	// Suffix sums: cSuf[i] = #correct samples with value >= cVals[i].
	cSuf := suffixSums(cMult)
	fSuf := suffixSums(fMult)

	// The distinct values of the merged multiset are the sorted union.
	union := mergeDistinct(cVals, fVals)
	if len(union) == 1 {
		// All values identical: no separating threshold exists; the best
		// predicate is uninformative (score 0, covered by a degenerate
		// ≥ threshold just below the common value).
		base.Op = PredGe
		base.Threshold = float64(union[0]) - 0.5
		base.Score = 0
		base.Err = nc
		return base
	}

	countGE := func(vals []int64, suf []int, t float64) int {
		idx := sort.Search(len(vals), func(i int) bool { return float64(vals[i]) >= t })
		if idx == len(vals) {
			return 0
		}
		return suf[idx]
	}

	bestErr := math.MaxInt
	var bestOp PredOp
	var bestT float64
	for i := 1; i < len(union); i++ {
		t := float64(union[i-1]) + float64(union[i]-union[i-1])/2
		cGE := countGE(cVals, cSuf, t)
		fGE := countGE(fVals, fSuf, t)
		if e := cGE + (nf - fGE); e < bestErr {
			bestErr, bestOp, bestT = e, PredGe, t
		}
		if e := (nc - cGE) + fGE; e < bestErr {
			bestErr, bestOp, bestT = e, PredLe, t
		}
	}
	base.Op = bestOp
	base.Threshold = bestT
	base.Err = bestErr

	cGE := countGE(cVals, cSuf, bestT)
	fGE := countGE(fVals, fSuf, bestT)
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

func suffixSums(mult []int) []int {
	suf := make([]int, len(mult))
	total := 0
	for i := len(mult) - 1; i >= 0; i-- {
		total += mult[i]
		suf[i] = total
	}
	return suf
}

// mergeDistinct merges two sorted distinct slices into their sorted union.
func mergeDistinct(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
