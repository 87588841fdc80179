package solver

import (
	"context"
	"slices"
	"sort"
)

// Solver decides conjunctions of constraints. The zero value is usable and
// applies default budgets; budgets make every call terminate.
type Solver struct {
	// MaxPasses bounds interval-propagation sweeps per node.
	MaxPasses int
	// MaxNodes bounds branch-and-propagate search nodes per Check.
	MaxNodes int
	// MaxFMConstraints aborts Fourier–Motzkin when intermediate systems
	// grow beyond this size; MaxFMVars skips it entirely for systems with
	// more variables than this.
	MaxFMConstraints int
	MaxFMVars        int

	// Stats counters (updated by Check).
	Stats Stats

	// scratch is the problem each Check resets, so that a solve allocates
	// its constraint list, variable index, intervals and disequalities
	// only when they outgrow an earlier solve's. A Solver belongs to one
	// goroutine, like the executor or slot that owns it.
	scratch problem
}

// Stats counts solver activity.
type Stats struct {
	Checks  int
	Sat     int
	Unsat   int
	Unknown int
}

// Default budgets.
const (
	DefaultMaxPasses        = 64
	DefaultMaxNodes         = 20_000
	DefaultMaxFMConstraints = 4_096
)

// New returns a solver with default budgets.
func New() *Solver {
	return &Solver{
		MaxPasses:        DefaultMaxPasses,
		MaxNodes:         DefaultMaxNodes,
		MaxFMConstraints: DefaultMaxFMConstraints,
	}
}

func (s *Solver) maxPasses() int {
	if s.MaxPasses <= 0 {
		return DefaultMaxPasses
	}
	return s.MaxPasses
}

func (s *Solver) maxNodes() int {
	if s.MaxNodes <= 0 {
		return DefaultMaxNodes
	}
	return s.MaxNodes
}

func (s *Solver) maxFM() int {
	if s.MaxFMConstraints <= 0 {
		return DefaultMaxFMConstraints
	}
	return s.MaxFMConstraints
}

// Check decides the conjunction of cons over variables from t. On Sat the
// returned model assigns every variable that occurs in cons (other
// variables are unconstrained; use their intrinsic bounds or zero).
func (s *Solver) Check(t *VarTable, cons []Constraint) (Result, *Model) {
	return s.CheckCtx(context.Background(), t, cons)
}

// CheckCtx is Check under a context. A cancelled or expired context makes
// the query resolve to Unknown without searching — callers that explore
// optimistically on Unknown stay sound, and the enclosing executor observes
// the same cancellation at its own loop and stops. Every individual query
// is already bounded by the solver budgets, so the context is consulted
// between the solving stages rather than inside the inner search loops.
func (s *Solver) CheckCtx(ctx context.Context, t *VarTable, cons []Constraint) (Result, *Model) {
	s.Stats.Checks++
	if ctx != nil && ctx.Err() != nil {
		s.Stats.Unknown++
		return Unknown, nil
	}
	// Trivial screening.
	p := &s.scratch
	p.cons = p.cons[:0]
	for _, c := range cons {
		if c.IsTriviallyTrue() {
			continue
		}
		if c.IsTriviallyFalse() {
			s.Stats.Unsat++
			return Unsat, nil
		}
		p.cons = append(p.cons, c)
	}
	if len(p.cons) == 0 {
		s.Stats.Sat++
		return Sat, new(Model)
	}

	p.reset(t)
	if !p.propagate(s.maxPasses()) {
		s.Stats.Unsat++
		return Unsat, nil
	}
	budget := s.maxNodes()
	if m, found := p.search(&budget, s.maxPasses()); found {
		s.Stats.Sat++
		return Sat, m
	}
	// Model search failed: attempt a rational infeasibility proof (sound
	// for the integer problem too). Fourier–Motzkin is quadratic in the
	// variable count, so it is the last resort and is skipped for very
	// wide systems — and under a cancelled context.
	if (ctx == nil || ctx.Err() == nil) && len(p.vars) <= s.maxFMVars() {
		if feasible, ok := p.fourierMotzkin(s.maxFM()); ok && !feasible {
			s.Stats.Unsat++
			return Unsat, nil
		}
	}
	s.Stats.Unknown++
	return Unknown, nil
}

// MaxFMVars bounds the variable count for which Fourier–Motzkin runs.
const DefaultMaxFMVars = 96

func (s *Solver) maxFMVars() int {
	if s.MaxFMVars <= 0 {
		return DefaultMaxFMVars
	}
	return s.MaxFMVars
}

// --- extended arithmetic (int64 with ±∞) ---

type extClass int8

const (
	ninf extClass = -1
	fin  extClass = 0
	pinf extClass = 1
)

type ext struct {
	v   int64
	cls extClass
}

var (
	extNegInf = ext{cls: ninf}
	extPosInf = ext{cls: pinf}
)

func extOf(v int64) ext { return ext{v: v} }

func (a ext) isFin() bool { return a.cls == fin }

// less reports a < b in the extended order.
func (a ext) less(b ext) bool {
	if a.cls != b.cls {
		return a.cls < b.cls
	}
	return a.cls == fin && a.v < b.v
}

const (
	maxI64 = int64(^uint64(0) >> 1)
	minI64 = -maxI64 - 1
)

// satAdd adds finite int64s, saturating to ±∞ on overflow (sound for bound
// arithmetic: saturation only loosens bounds).
func satAdd(a, b int64) ext {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return extPosInf
		}
		return extNegInf
	}
	return extOf(s)
}

// extAdd adds extended values; (+∞) + (−∞) never occurs in our usage (the
// caller checks finiteness first), but is defined as +∞ to stay loose.
func extAdd(a, b ext) ext {
	if a.cls == fin && b.cls == fin {
		return satAdd(a.v, b.v)
	}
	if a.cls == pinf || b.cls == pinf {
		return extPosInf
	}
	return extNegInf
}

// mulCoeff multiplies an extended value by a non-zero finite coefficient.
func mulCoeff(k int64, a ext) ext {
	switch a.cls {
	case pinf:
		if k > 0 {
			return extPosInf
		}
		return extNegInf
	case ninf:
		if k > 0 {
			return extNegInf
		}
		return extPosInf
	}
	p := k * a.v
	if a.v != 0 && (p/a.v != k) {
		// Overflow: saturate by sign.
		if (k > 0) == (a.v > 0) {
			return extPosInf
		}
		return extNegInf
	}
	return extOf(p)
}

// floorDiv returns ⌊a/b⌋ for b ≠ 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ceilDiv returns ⌈a/b⌉ for b ≠ 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// interval is a (possibly unbounded) integer range.
type interval struct {
	lo, hi ext
}

func fullInterval() interval { return interval{lo: extNegInf, hi: extPosInf} }

func (iv interval) empty() bool { return iv.hi.less(iv.lo) }

func (iv interval) fixed() (int64, bool) {
	if iv.lo.isFin() && iv.hi.isFin() && iv.lo.v == iv.hi.v {
		return iv.lo.v, true
	}
	return 0, false
}

func (iv interval) contains(v int64) bool {
	e := extOf(v)
	return !e.less(iv.lo) && !iv.hi.less(e)
}

// tightenHi lowers the upper bound to at most h; reports whether changed.
func (iv *interval) tightenHi(h ext) bool {
	if h.less(iv.hi) {
		iv.hi = h
		return true
	}
	return false
}

// tightenLo raises the lower bound to at least l; reports whether changed.
func (iv *interval) tightenLo(l ext) bool {
	if iv.lo.less(l) {
		iv.lo = l
		return true
	}
	return false
}

// --- problem state ---

type problem struct {
	table *VarTable
	cons  []Constraint
	// vars lists the distinct variables occurring in cons; idx maps a Var
	// to its dense index.
	vars []Var
	idx  map[Var]int
	ivs  []interval
	// neq collects single-variable unit-coefficient disequalities as
	// (dense index, forbidden value).
	neq []neqEntry
}

type neqEntry struct {
	di  int
	val int64
}

// reset makes p the problem of its constraints over t, reusing the
// storage of the problem it was before.
func (p *problem) reset(t *VarTable) {
	p.table = t
	if p.idx == nil {
		p.idx = make(map[Var]int)
	}
	clear(p.idx)
	p.vars, p.neq = p.vars[:0], p.neq[:0]
	for _, c := range p.cons {
		for _, tm := range c.E.Terms {
			if _, seen := p.idx[tm.Var]; !seen {
				p.idx[tm.Var] = len(p.vars)
				p.vars = append(p.vars, tm.Var)
			}
		}
	}
	p.ivs = slices.Grow(p.ivs[:0], len(p.vars))[:len(p.vars)]
	for i, v := range p.vars {
		iv := fullInterval()
		info := t.Info(v)
		if info.HasLo {
			iv.lo = extOf(info.Lo)
		}
		if info.HasHi {
			iv.hi = extOf(info.Hi)
		}
		p.ivs[i] = iv
	}
	for _, c := range p.cons {
		if c.Op != OpNe {
			continue
		}
		if v, coeff, ok := c.E.SingleVar(); ok && (coeff == 1 || coeff == -1) {
			// coeff·v + k ≠ 0  ⇒  v ≠ −k/coeff (only when divisible).
			k := c.E.Const
			if k%coeff == 0 {
				p.neq = append(p.neq, neqEntry{di: p.idx[v], val: -k / coeff})
			}
		}
	}
}

func (p *problem) clone() *problem {
	q := *p
	q.ivs = make([]interval, len(p.ivs))
	copy(q.ivs, p.ivs)
	return &q
}

// propagate tightens intervals to a fixpoint; returns false on emptiness.
func (p *problem) propagate(maxPasses int) bool {
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, c := range p.cons {
			switch c.Op {
			case OpLe:
				ch, ok := p.propagateLe(c.E, 1)
				if !ok {
					return false
				}
				changed = changed || ch
			case OpEq:
				ch1, ok := p.propagateLe(c.E, 1)
				if !ok {
					return false
				}
				ch2, ok := p.propagateLe(c.E, -1)
				if !ok {
					return false
				}
				changed = changed || ch1 || ch2
			case OpNe:
				// Handled by hole punching below and by verification.
			}
		}
		for _, ne := range p.neq {
			iv := &p.ivs[ne.di]
			if v, ok := iv.fixed(); ok && v == ne.val {
				return false
			}
			if iv.lo.isFin() && iv.lo.v == ne.val {
				iv.lo = extOf(ne.val + 1)
				changed = true
			}
			if iv.hi.isFin() && iv.hi.v == ne.val {
				iv.hi = extOf(ne.val - 1)
				changed = true
			}
			if iv.empty() {
				return false
			}
		}
		if !changed {
			return true
		}
	}
	return true
}

// propagateLe tightens bounds using sign·e ≤ 0, that is Σ ci·xi ≤ −Const
// where ci and Const are sign·e's (sign is 1 or −1, so an equality's two
// halves need no negated copy of e). For each term i,
//
//	ci·xi ≤ −Const − Σ_{j≠i} cj·xj ≤ −Const − min(Σ_{j≠i} cj·xj).
func (p *problem) propagateLe(e LinExpr, sign int64) (changed, ok bool) {
	k := sign * e.Const
	// Feasibility of the constraint itself: min(Σ ci·xi) ≤ −Const.
	totalMin := extOf(0)
	for _, tm := range e.Terms {
		totalMin = extAdd(totalMin, p.termMin(Term{Coeff: sign * tm.Coeff, Var: tm.Var}))
	}
	if totalMin.isFin() && totalMin.v > -k {
		return false, false
	}
	if totalMin.cls == pinf {
		return false, false
	}
	for i, tm := range e.Terms {
		// min over the other terms.
		rest := extOf(0)
		for j, tj := range e.Terms {
			if j == i {
				continue
			}
			rest = extAdd(rest, p.termMin(Term{Coeff: sign * tj.Coeff, Var: tj.Var}))
		}
		if !rest.isFin() {
			continue // unbounded rest: no tightening possible
		}
		rhs := satAdd(-k, -rest.v)
		if !rhs.isFin() {
			continue
		}
		di := p.idx[tm.Var]
		iv := &p.ivs[di]
		if c := sign * tm.Coeff; c > 0 {
			if iv.tightenHi(extOf(floorDiv(rhs.v, c))) {
				changed = true
			}
		} else {
			if iv.tightenLo(extOf(ceilDiv(rhs.v, c))) {
				changed = true
			}
		}
		if iv.empty() {
			return changed, false
		}
	}
	return changed, true
}

// termMin returns min(ci·xi) over the variable's interval.
func (p *problem) termMin(tm Term) ext {
	iv := p.ivs[p.idx[tm.Var]]
	if tm.Coeff > 0 {
		return mulCoeff(tm.Coeff, iv.lo)
	}
	return mulCoeff(tm.Coeff, iv.hi)
}

// --- model search ---

// search attempts to build an integer model by branching on candidate
// values and re-propagating. It is sound (returned models are verified) but
// intentionally incomplete; the FM pass provides unsat proofs.
func (p *problem) search(budget *int, maxPasses int) (*Model, bool) {
	if *budget <= 0 {
		return nil, false
	}
	*budget--
	if !p.propagate(maxPasses) {
		return nil, false
	}
	// Find the first unfixed variable, preferring small finite domains.
	branch := -1
	var branchSize ext = extPosInf
	for i := range p.ivs {
		if _, ok := p.ivs[i].fixed(); ok {
			continue
		}
		size := extPosInf
		if p.ivs[i].lo.isFin() && p.ivs[i].hi.isFin() {
			size = extOf(p.ivs[i].hi.v - p.ivs[i].lo.v)
		}
		if branch == -1 || size.less(branchSize) {
			branch = i
			branchSize = size
		}
	}
	if branch == -1 {
		m := p.modelFromFixed()
		if p.verify(m) {
			return m, true
		}
		return nil, false
	}
	for _, cand := range p.candidates(branch) {
		q := p.clone()
		q.ivs[branch] = interval{lo: extOf(cand), hi: extOf(cand)}
		if m, ok := q.search(budget, maxPasses); ok {
			return m, true
		}
		if *budget <= 0 {
			return nil, false
		}
	}
	return nil, false
}

// candidates proposes trial values for the variable at dense index di.
func (p *problem) candidates(di int) []int64 {
	iv := p.ivs[di]
	forbidden := make(map[int64]bool)
	for _, ne := range p.neq {
		if ne.di == di {
			forbidden[ne.val] = true
		}
	}
	var out []int64
	add := func(v int64) {
		if !iv.contains(v) || forbidden[v] {
			return
		}
		for _, x := range out {
			if x == v {
				return
			}
		}
		out = append(out, v)
	}
	// Preference order: small magnitudes first for readable witnesses.
	if iv.contains(0) {
		add(0)
	}
	if iv.lo.isFin() {
		add(iv.lo.v)
		add(iv.lo.v + 1)
		add(iv.lo.v + 2)
	}
	if iv.hi.isFin() {
		add(iv.hi.v)
		add(iv.hi.v - 1)
	}
	if iv.lo.isFin() && iv.hi.isFin() {
		add(iv.lo.v + (iv.hi.v-iv.lo.v)/2)
	}
	if len(out) == 0 {
		// Fully unbounded with a forbidden hole at 0 (or holes near it):
		// probe small values.
		for v := int64(1); v <= 4 && len(out) == 0; v++ {
			add(v)
			add(-v)
		}
	}
	return out
}

func (p *problem) modelFromFixed() *Model {
	var b ModelBuilder
	for i, v := range p.vars {
		val, _ := p.ivs[i].fixed()
		b.Set(v, val)
	}
	return b.Model()
}

func (p *problem) verify(m *Model) bool {
	for _, c := range p.cons {
		if !c.Holds(m) {
			return false
		}
	}
	return true
}

// --- Fourier–Motzkin ---

// fmRow is Σ coeffs·x ≤ rhs over dense indices.
type fmRow struct {
	coeffs []int64
	rhs    int64
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mulOK multiplies with overflow detection.
func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// fourierMotzkin tests rational feasibility of the LE/EQ constraints plus
// intrinsic/propagated bounds. Returns (feasible, ok); ok=false means the
// procedure gave up (size cap or overflow) and nothing can be concluded.
func (p *problem) fourierMotzkin(maxRows int) (feasible, ok bool) {
	n := len(p.vars)
	var rows []fmRow
	addRow := func(coeffs []int64, rhs int64) {
		rows = append(rows, fmRow{coeffs: coeffs, rhs: rhs})
	}
	rowFrom := func(e LinExpr, negate bool) {
		coeffs := make([]int64, n)
		for _, tm := range e.Terms {
			c := tm.Coeff
			if negate {
				c = -c
			}
			coeffs[p.idx[tm.Var]] = c
		}
		rhs := -e.Const
		if negate {
			rhs = e.Const
		}
		addRow(coeffs, rhs)
	}
	for _, c := range p.cons {
		switch c.Op {
		case OpLe:
			rowFrom(c.E, false)
		case OpEq:
			rowFrom(c.E, false)
			rowFrom(c.E, true)
		}
	}
	for i := range p.ivs {
		if p.ivs[i].hi.isFin() {
			coeffs := make([]int64, n)
			coeffs[i] = 1
			addRow(coeffs, p.ivs[i].hi.v)
		}
		if p.ivs[i].lo.isFin() {
			coeffs := make([]int64, n)
			coeffs[i] = -1
			addRow(coeffs, -p.ivs[i].lo.v)
		}
	}
	for vi := 0; vi < n; vi++ {
		var pos, neg, rest []fmRow
		for _, r := range rows {
			switch {
			case r.coeffs[vi] > 0:
				pos = append(pos, r)
			case r.coeffs[vi] < 0:
				neg = append(neg, r)
			default:
				rest = append(rest, r)
			}
		}
		if len(rest)+len(pos)*len(neg) > maxRows {
			return true, false
		}
		rows = rest
		for _, pr := range pos {
			for _, nr := range neg {
				combined, combOK := combineRows(pr, nr, vi, n)
				if !combOK {
					return true, false
				}
				// Constant row: check immediately; variable row: keep.
				if isZeroRow(combined.coeffs) {
					if combined.rhs < 0 {
						return false, true
					}
					continue
				}
				rows = append(rows, combined)
			}
		}
	}
	for _, r := range rows {
		if isZeroRow(r.coeffs) && r.rhs < 0 {
			return false, true
		}
	}
	return true, true
}

func isZeroRow(coeffs []int64) bool {
	for _, c := range coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// combineRows eliminates variable vi from pr (coeff > 0) and nr (coeff < 0):
// (−nr.c)·pr + (pr.c)·nr.
func combineRows(pr, nr fmRow, vi, n int) (fmRow, bool) {
	a := pr.coeffs[vi]  // > 0
	b := -nr.coeffs[vi] // > 0
	g := gcd64(a, b)
	a /= g
	b /= g
	out := fmRow{coeffs: make([]int64, n)}
	for i := 0; i < n; i++ {
		x, ok1 := mulOK(b, pr.coeffs[i])
		y, ok2 := mulOK(a, nr.coeffs[i])
		if !ok1 || !ok2 {
			return fmRow{}, false
		}
		s, ok3 := addOK(x, y)
		if !ok3 {
			return fmRow{}, false
		}
		out.coeffs[i] = s
	}
	x, ok1 := mulOK(b, pr.rhs)
	y, ok2 := mulOK(a, nr.rhs)
	if !ok1 || !ok2 {
		return fmRow{}, false
	}
	s, ok3 := addOK(x, y)
	if !ok3 {
		return fmRow{}, false
	}
	out.rhs = s
	// Normalize by gcd to slow coefficient growth.
	g = 0
	for _, c := range out.coeffs {
		g = gcd64(g, c)
	}
	if g > 1 {
		for i := range out.coeffs {
			out.coeffs[i] /= g
		}
		out.rhs = floorDiv(out.rhs, g)
	}
	return out, true
}

// SortedVars returns the problem variables of a constraint set in id order
// (useful for deterministic iteration in diagnostics and tests).
func SortedVars(cons []Constraint) []Var {
	seen := make(map[Var]struct{})
	var out []Var
	for _, c := range cons {
		for _, tm := range c.E.Terms {
			if _, ok := seen[tm.Var]; !ok {
				seen[tm.Var] = struct{}{}
				out = append(out, tm.Var)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
