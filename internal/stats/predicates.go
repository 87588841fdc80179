// Package stats implements the paper's statistical inference component
// (§V-A): it analyzes runtime logs, constructs threshold predicates that
// optimally separate a variable's values in correct versus faulty
// executions (Eq. 1), and ranks them by the confidence score
// s = |P(x|C) − P(x|F)| (Eq. 2). This is the Predicate Manager of the
// prototype (§VI-B).
package stats

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// PredOp is a predicate's comparison direction.
type PredOp int

// Predicate forms. PredNever ("a < -infinity") arises for variables whose
// instrumentation location is never reached in faulty runs — the paper's
// P7–P10 for polymorph (Table V) have exactly this form.
const (
	PredGe PredOp = iota + 1 // value ≥ threshold
	PredLe                   // value ≤ threshold
	PredNever
)

// Predicate is a statistical predicate over one variable at one location.
type Predicate struct {
	Loc   trace.Location
	Var   string
	Class trace.VarClass
	// IsString records whether the underlying variable is a string (the
	// numeric view is then its length, so the rendered form is
	// "len(var) ≥ t").
	IsString bool

	Op PredOp
	// Threshold is a half-integer separating the two distributions
	// (e.g. 536.5), ignored for PredNever.
	Threshold float64

	// Score is the confidence score s = |P(x|C) − P(x|F)| (Eq. 2);
	// Err is the quantification error E (Eq. 1) of the chosen threshold.
	Score float64
	Err   int

	// Sample counts.
	CountC, CountF int
}

// String renders the predicate in the paper's Table V style.
func (p *Predicate) String() string {
	name := p.Var
	if p.IsString {
		name = "len(" + name + ")"
	}
	label := fmt.Sprintf("%s %s", name, p.Class)
	switch p.Op {
	case PredGe:
		return fmt.Sprintf("%s >= %.1f", label, p.Threshold)
	case PredLe:
		return fmt.Sprintf("%s <= %.1f", label, p.Threshold)
	default:
		return label + " < -infinity"
	}
}

// HoldsFor evaluates the predicate on a numeric value.
func (p *Predicate) HoldsFor(v int64) bool {
	switch p.Op {
	case PredGe:
		return float64(v) >= p.Threshold
	case PredLe:
		return float64(v) <= p.Threshold
	default:
		return false
	}
}

// IntThreshold converts the half-integer threshold into the equivalent
// integer bound: for PredGe, value ≥ k; for PredLe, value ≤ k.
func (p *Predicate) IntThreshold() int64 {
	switch p.Op {
	case PredGe:
		return int64(math.Ceil(p.Threshold))
	case PredLe:
		return int64(math.Floor(p.Threshold))
	default:
		return 0
	}
}

// Key identifies the (location, variable) pair of the predicate.
func (p *Predicate) Key() string { return p.Loc.String() + "/" + p.Var }

// Analysis is the output of predicate construction.
type Analysis struct {
	// Predicates are ranked by score (descending), deterministically
	// tie-broken.
	Predicates []*Predicate

	// Runs/Locations/Variables are the preprocessing counts n(R), n(L),
	// n(V).
	Runs, Locations, Variables int
}

// Top returns the k highest-ranked predicates.
func (a *Analysis) Top(k int) []*Predicate {
	if k > len(a.Predicates) {
		k = len(a.Predicates)
	}
	return a.Predicates[:k]
}

// BestAt returns the highest-scoring predicate at a location, or nil.
func (a *Analysis) BestAt(loc trace.Location) *Predicate {
	for _, p := range a.Predicates { // ranked, so first hit is best
		if p.Loc == loc {
			return p
		}
	}
	return nil
}

// LocationScore returns the score of the best predicate at loc (0 if none)
// — the node score used by candidate-path construction (§V-B step 1).
func (a *Analysis) LocationScore(loc trace.Location) float64 {
	if p := a.BestAt(loc); p != nil {
		return p.Score
	}
	return 0
}

// Analyze runs predicate construction and ranking over an in-memory
// corpus — steps (a)–(d) of the algorithm in Fig. 5. It is AnalyzeStream
// over the corpus's iterator, so both corpus sources share one predicate
// builder; iterating a Corpus cannot fail, and nothing cancels the
// background context.
func Analyze(corpus *trace.Corpus) *Analysis {
	a, _ := AnalyzeStream(context.Background(), corpus.Iter(), StreamOpts{})
	return a
}

// buildParallel evaluates build(0..n-1) over a bounded worker pool and
// returns the results in index order, so callers see the sequence the
// sequential loop would have produced regardless of GOMAXPROCS.
func buildParallel(n int, build func(i int) *Predicate) []*Predicate {
	built := make([]*Predicate, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			built[i] = build(i)
		}
		return built
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				built[i] = build(i)
			}
		}()
	}
	wg.Wait()
	return built
}

// rankPredicates sorts by score, then by sample count, then by name for
// determinism. PredNever predicates rank below value predicates of equal
// score (they give the symbolic executor no constraint to use). The final
// tie-break is the unique (location, variable) key, so the ranking depends
// only on the predicate multiset, never on construction order.
func rankPredicates(preds []*Predicate) {
	sort.SliceStable(preds, func(i, j int) bool {
		pi, pj := preds[i], preds[j]
		if pi.Score != pj.Score {
			return pi.Score > pj.Score
		}
		if (pi.Op == PredNever) != (pj.Op == PredNever) {
			return pj.Op == PredNever
		}
		ni, nj := pi.CountC+pi.CountF, pj.CountC+pj.CountF
		if ni != nj {
			return ni > nj
		}
		return pi.Key() < pj.Key()
	})
}
