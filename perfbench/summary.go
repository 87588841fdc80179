package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Tail is the highest percentile of a sample that still has at least
// TailBeyond samples above it — the tail a sample of this size can
// support. With n samples sorted ascending, it is the value at 1-based
// rank n-TailBeyond, i.e. the 100·(n-TailBeyond)/n percentile.
type Tail struct {
	Value      float64
	Percentile float64 // e.g. 75 for the 75th percentile
	Samples    int     // sample count the percentile was taken over
	Beyond     int     // samples strictly above the reported rank
	Passes     int     // >0: taken per pass, Value is the median over this many
}

// TailBeyond is the number of samples a reported tail percentile must
// have above it.
const TailBeyond = 10

// tail applies the tail rule. It fails when the sample has TailBeyond
// samples or fewer: no percentile of it has enough samples beyond.
func tail(xs []float64) (Tail, error) {
	n := len(xs)
	rank := n - TailBeyond
	if rank < 1 {
		return Tail{Samples: n}, fmt.Errorf("tail: %d samples, need more than %d", n, TailBeyond)
	}
	s := sorted(xs)
	return Tail{
		Value:      s[rank-1],
		Percentile: 100 * float64(rank) / float64(n),
		Samples:    n,
		Beyond:     n - rank,
	}, nil
}

// Label names the tail percentile with its sample count, e.g.
// "p75 of 40 (10 beyond)", and the pass count when taken per pass.
func (t Tail) Label() string {
	l := fmt.Sprintf("p%s of %d (%d beyond)", trimFloat(t.Percentile), t.Samples, t.Beyond)
	if t.Passes > 0 {
		l += fmt.Sprintf(" per pass, median of %d passes", t.Passes)
	}
	return l
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.1f", x)
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness report matches the acceptance arithmetic.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles: need at least 2 values, have %d", ld)
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
