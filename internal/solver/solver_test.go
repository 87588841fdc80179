package solver

import (
	"math/rand"
	"testing"
)

// checkSat asserts Sat and returns a verified model.
func checkSat(t *testing.T, tbl *VarTable, cons []Constraint) *Model {
	t.Helper()
	s := New()
	res, m := s.Check(tbl, cons)
	if res != Sat {
		t.Fatalf("Check = %v, want sat; constraints: %v", res, renderCons(tbl, cons))
	}
	for _, c := range cons {
		if !c.Holds(m) {
			t.Fatalf("model %v violates %s", m, c.String(tbl))
		}
	}
	return m
}

func checkUnsat(t *testing.T, tbl *VarTable, cons []Constraint) {
	t.Helper()
	s := New()
	res, _ := s.Check(tbl, cons)
	if res != Unsat {
		t.Fatalf("Check = %v, want unsat; constraints: %v", res, renderCons(tbl, cons))
	}
}

func renderCons(tbl *VarTable, cons []Constraint) []string {
	out := make([]string, len(cons))
	for i, c := range cons {
		out[i] = c.String(tbl)
	}
	return out
}

func TestLinExprAlgebra(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	e := VarExpr(x).MulConst(2).Add(VarExpr(y)).AddConst(3) // 2x + y + 3
	e2 := e.Sub(VarExpr(y))                                 // 2x + 3
	if len(e2.Terms) != 1 || e2.Terms[0].Coeff != 2 || e2.Const != 3 {
		t.Fatalf("e2 = %+v", e2)
	}
	if got := e.Eval(ModelOf(map[Var]int64{x: 5, y: 7})); got != 20 {
		t.Errorf("Eval = %d, want 20", got)
	}
	neg := e.Neg()
	if got := neg.Eval(ModelOf(map[Var]int64{x: 5, y: 7})); got != -20 {
		t.Errorf("Neg Eval = %d, want -20", got)
	}
	zero := e.Sub(e)
	if !zero.IsConst() || zero.Const != 0 {
		t.Errorf("e - e = %+v, want 0", zero)
	}
}

func TestNormalizeMergesDuplicates(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	e := VarExpr(x).Add(VarExpr(x)).Add(VarExpr(x).MulConst(-2))
	if !e.IsConst() || e.Const != 0 {
		t.Fatalf("x + x - 2x = %+v, want const 0", e)
	}
}

func TestTrivialConstraints(t *testing.T) {
	tbl := NewVarTable()
	res, m := New().Check(tbl, []Constraint{Le(ConstExpr(1), ConstExpr(2))})
	if res != Sat || m == nil {
		t.Errorf("1<=2: %v", res)
	}
	res, _ = New().Check(tbl, []Constraint{Le(ConstExpr(3), ConstExpr(2))})
	if res != Unsat {
		t.Errorf("3<=2: %v, want unsat", res)
	}
	res, _ = New().Check(tbl, nil)
	if res != Sat {
		t.Errorf("empty: %v, want sat", res)
	}
}

func TestSimpleBounds(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	m := checkSat(t, tbl, []Constraint{
		Ge(VarExpr(x), ConstExpr(3)),
		Lt(VarExpr(x), ConstExpr(10)),
	})
	if m.Value(x) < 3 || m.Value(x) >= 10 {
		t.Errorf("model x = %d outside [3,10)", m.Value(x))
	}
	checkUnsat(t, tbl, []Constraint{
		Ge(VarExpr(x), ConstExpr(10)),
		Lt(VarExpr(x), ConstExpr(10)),
	})
}

func TestIntegerGap(t *testing.T) {
	// 3 < x < 4 has no integer solution (rationally feasible).
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	res, _ := New().Check(tbl, []Constraint{
		Gt(VarExpr(x), ConstExpr(3)),
		Lt(VarExpr(x), ConstExpr(4)),
	})
	// Strict integer translation (x ≥ 4 ∧ x ≤ 3) makes propagation prove
	// unsat.
	if res != Unsat {
		t.Errorf("3<x<4: %v, want unsat", res)
	}
}

func TestEqualityChains(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	z := tbl.NewVar("z")
	m := checkSat(t, tbl, []Constraint{
		Eq(VarExpr(x), VarExpr(y).AddConst(1)),
		Eq(VarExpr(y), VarExpr(z).AddConst(1)),
		Eq(VarExpr(z), ConstExpr(5)),
	})
	if m.Value(x) != 7 || m.Value(y) != 6 || m.Value(z) != 5 {
		t.Errorf("model = %v, want x=7 y=6 z=5", m)
	}
	checkUnsat(t, tbl, []Constraint{
		Eq(VarExpr(x), VarExpr(y).AddConst(1)),
		Eq(VarExpr(y), VarExpr(x).AddConst(1)),
	})
}

func TestDisequality(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVarBounded("x", 0, 1)
	m := checkSat(t, tbl, []Constraint{Ne(VarExpr(x), ConstExpr(0))})
	if m.Value(x) != 1 {
		t.Errorf("x = %d, want 1", m.Value(x))
	}
	checkUnsat(t, tbl, []Constraint{
		Ne(VarExpr(x), ConstExpr(0)),
		Ne(VarExpr(x), ConstExpr(1)),
	})
}

func TestDisequalityUnbounded(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	m := checkSat(t, tbl, []Constraint{
		Ne(VarExpr(x), ConstExpr(0)),
		Ne(VarExpr(x), ConstExpr(1)),
		Ne(VarExpr(x), ConstExpr(-1)),
	})
	if m.Value(x) == 0 || m.Value(x) == 1 || m.Value(x) == -1 {
		t.Errorf("x = %d violates disequalities", m.Value(x))
	}
}

func TestTwoVarInequalities(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	// x ≤ y − 5, y ≤ 10, x ≥ 3 → x ∈ [3,5], y ∈ [8,10].
	m := checkSat(t, tbl, []Constraint{
		Le(VarExpr(x), VarExpr(y).AddConst(-5)),
		Le(VarExpr(y), ConstExpr(10)),
		Ge(VarExpr(x), ConstExpr(3)),
	})
	if m.Value(x) < 3 || m.Value(x) > 5 || m.Value(y) < m.Value(x)+5 || m.Value(y) > 10 {
		t.Errorf("model = %v", m)
	}
	checkUnsat(t, tbl, []Constraint{
		Le(VarExpr(x), VarExpr(y).AddConst(-5)),
		Le(VarExpr(y), ConstExpr(10)),
		Ge(VarExpr(x), ConstExpr(6)),
	})
}

func TestFMChainUnsat(t *testing.T) {
	// x < y, y < z, z < x is infeasible; propagation alone cannot see it
	// (all variables unbounded), so this exercises Fourier–Motzkin.
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	z := tbl.NewVar("z")
	checkUnsat(t, tbl, []Constraint{
		Lt(VarExpr(x), VarExpr(y)),
		Lt(VarExpr(y), VarExpr(z)),
		Lt(VarExpr(z), VarExpr(x)),
	})
}

func TestFMSumConstraint(t *testing.T) {
	// x + y ≤ 1 ∧ x + y ≥ 2 infeasible with unbounded vars.
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	sum := VarExpr(x).Add(VarExpr(y))
	checkUnsat(t, tbl, []Constraint{
		Le(sum, ConstExpr(1)),
		Ge(sum, ConstExpr(2)),
	})
	m := checkSat(t, tbl, []Constraint{
		Le(sum, ConstExpr(5)),
		Ge(sum, ConstExpr(5)),
	})
	if m.Value(x)+m.Value(y) != 5 {
		t.Errorf("x+y = %d, want 5", m.Value(x)+m.Value(y))
	}
}

func TestCoefficients(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	// 3x ≥ 7 → x ≥ 3 for integers.
	m := checkSat(t, tbl, []Constraint{Ge(VarExpr(x).MulConst(3), ConstExpr(7))})
	if m.Value(x) < 3 {
		t.Errorf("3x>=7 gave x = %d", m.Value(x))
	}
	// 2x = 7 has no integer solution.
	res, _ := New().Check(tbl, []Constraint{Eq(VarExpr(x).MulConst(2), ConstExpr(7))})
	if res == Sat {
		t.Errorf("2x=7: got sat")
	}
}

func TestIntrinsicBounds(t *testing.T) {
	tbl := NewVarTable()
	length := tbl.NewVarMin("len", 0)
	checkUnsat(t, tbl, []Constraint{Lt(VarExpr(length), ConstExpr(0))})
	b := tbl.NewVarBounded("byte", 0, 255)
	checkUnsat(t, tbl, []Constraint{Gt(VarExpr(b), ConstExpr(255))})
	m := checkSat(t, tbl, []Constraint{Gt(VarExpr(b), ConstExpr(254))})
	if m.Value(b) != 255 {
		t.Errorf("byte = %d, want 255", m.Value(b))
	}
}

func TestPaperStyleQuery(t *testing.T) {
	// The polymorph predicate: len(target) > 518 together with the loop
	// guard i < len(target) and overflow query i ≥ 512.
	tbl := NewVarTable()
	length := tbl.NewVarMin("len(target)", 0)
	i := tbl.NewVarMin("i", 0)
	m := checkSat(t, tbl, []Constraint{
		Gt(VarExpr(length), ConstExpr(518)),
		Lt(VarExpr(i), VarExpr(length)),
		Ge(VarExpr(i), ConstExpr(512)),
	})
	if m.Value(length) <= 518 || m.Value(i) < 512 || m.Value(i) >= m.Value(length) {
		t.Errorf("model = %v", m)
	}
	// With a short string the overflow is unreachable.
	checkUnsat(t, tbl, []Constraint{
		Lt(VarExpr(length), ConstExpr(100)),
		Lt(VarExpr(i), VarExpr(length)),
		Ge(VarExpr(i), ConstExpr(512)),
	})
}

func TestNegate(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	cons := []Constraint{
		Le(VarExpr(x), ConstExpr(5)),
		Eq(VarExpr(x), ConstExpr(3)),
		Ne(VarExpr(x), ConstExpr(3)),
	}
	for _, c := range cons {
		n := c.Negate()
		for v := int64(-10); v <= 10; v++ {
			m := ModelOf(map[Var]int64{x: v})
			if c.Holds(m) == n.Holds(m) {
				t.Errorf("constraint %s and negation %s agree at x=%d",
					c.String(tbl), n.String(tbl), v)
			}
		}
		nn := n.Negate()
		for v := int64(-10); v <= 10; v++ {
			m := ModelOf(map[Var]int64{x: v})
			if c.Holds(m) != nn.Holds(m) {
				t.Errorf("double negation differs at x=%d", v)
			}
		}
	}
}

func TestFloorCeilDiv(t *testing.T) {
	tests := []struct {
		a, b, floor, ceil int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{7, -2, -4, -3},
		{-7, -2, 3, 4},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
	}
	for _, tt := range tests {
		if got := floorDiv(tt.a, tt.b); got != tt.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.floor)
		}
		if got := ceilDiv(tt.a, tt.b); got != tt.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.ceil)
		}
	}
}

func TestConstraintString(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	tests := []struct {
		c    Constraint
		want string
	}{
		{Le(VarExpr(x), ConstExpr(5)), "x <= 5"},
		{Ge(VarExpr(x), ConstExpr(3)), "x >= 3"},
		{Eq(VarExpr(x), ConstExpr(7)), "x == 7"},
		{Ne(VarExpr(x), ConstExpr(2)), "x != 2"},
		{Le(VarExpr(x).Add(VarExpr(y)), ConstExpr(1)), "x + y - 1 <= 0"},
	}
	for _, tt := range tests {
		if got := tt.c.String(tbl); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// bruteForce exhaustively decides a system over a small box domain.
func bruteForce(cons []Constraint, vars []Var, lo, hi int64) (bool, *Model) {
	assign := make(map[Var]int64, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			m := ModelOf(assign)
			for _, c := range cons {
				if !c.Holds(m) {
					return false
				}
			}
			return true
		}
		for v := lo; v <= hi; v++ {
			assign[vars[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return true, ModelOf(assign)
	}
	return false, nil
}

// TestAgainstBruteForce generates random small systems over bounded
// variables and cross-checks the solver against exhaustive search. The
// solver must never contradict brute force (Unknown is allowed but counted).
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 400
	unknowns := 0
	for trial := 0; trial < trials; trial++ {
		tbl := NewVarTable()
		nv := 1 + rng.Intn(3)
		vars := make([]Var, nv)
		for i := range vars {
			vars[i] = tbl.NewVarBounded("x"+string(rune('0'+i)), -4, 4)
		}
		nc := 1 + rng.Intn(4)
		cons := make([]Constraint, 0, nc)
		for i := 0; i < nc; i++ {
			e := ConstExpr(int64(rng.Intn(9) - 4))
			for _, v := range vars {
				coeff := int64(rng.Intn(5) - 2)
				e = e.Add(VarExpr(v).MulConst(coeff))
			}
			var c Constraint
			switch rng.Intn(3) {
			case 0:
				c = Constraint{E: e, Op: OpLe}
			case 1:
				c = Constraint{E: e, Op: OpEq}
			default:
				c = Constraint{E: e, Op: OpNe}
			}
			cons = append(cons, c)
		}
		res, model := New().Check(tbl, cons)
		bfSat, _ := bruteForce(cons, vars, -4, 4)
		switch res {
		case Sat:
			for _, c := range cons {
				if !c.Holds(model) {
					t.Fatalf("trial %d: returned model %v violates %s",
						trial, model, c.String(tbl))
				}
			}
			// A solver model may lie outside the brute-force box only if
			// the variable bounds allowed it — but bounds here are the box
			// itself, so brute force must also be sat.
			if !bfSat {
				t.Fatalf("trial %d: solver sat, brute force unsat; cons=%v model=%v",
					trial, renderCons(tbl, cons), model)
			}
		case Unsat:
			if bfSat {
				t.Fatalf("trial %d: solver unsat, brute force sat; cons=%v",
					trial, renderCons(tbl, cons))
			}
		case Unknown:
			unknowns++
		}
	}
	if unknowns > trials/10 {
		t.Errorf("too many unknowns: %d/%d", unknowns, trials)
	}
}

func TestCachedSolver(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	cs := NewCached(New())
	cons := []Constraint{Ge(VarExpr(x), ConstExpr(3)), Le(VarExpr(x), ConstExpr(5))}
	r1, m1 := cs.Check(tbl, cons)
	r2, m2 := cs.Check(tbl, cons)
	if r1 != Sat || r2 != Sat {
		t.Fatalf("results: %v, %v", r1, r2)
	}
	if m1.Value(x) != m2.Value(x) {
		t.Errorf("cached model differs: %v vs %v", m1, m2)
	}
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", cs.Hits, cs.Misses)
	}
	// Order-insensitivity of the key.
	rev := []Constraint{cons[1], cons[0]}
	cs.Check(tbl, rev)
	if cs.Hits != 2 {
		t.Errorf("reordered query missed the cache: hits=%d", cs.Hits)
	}
}

func TestSolverStats(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	s := New()
	s.Check(tbl, []Constraint{Ge(VarExpr(x), ConstExpr(0))})
	s.Check(tbl, []Constraint{Lt(VarExpr(x), VarExpr(x))})
	if s.Stats.Checks != 2 || s.Stats.Sat != 1 || s.Stats.Unsat != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

func TestSortedVars(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	cons := []Constraint{
		Le(VarExpr(y), ConstExpr(1)),
		Le(VarExpr(x).Add(VarExpr(y)), ConstExpr(2)),
	}
	vars := SortedVars(cons)
	if len(vars) != 2 || vars[0] != x || vars[1] != y {
		t.Errorf("SortedVars = %v", vars)
	}
}
