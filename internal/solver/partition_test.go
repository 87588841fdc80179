package solver_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/solver"
	"repro/internal/solver/solvertest"
)

// The reference partition lives in solvertest, which imports package
// solver, so these tests sit in the external test package.

// checkPartitioned decides cons through CheckComponents on the reference
// partition.
func checkPartitioned(cs *solver.CachedSolver, tbl *solver.VarTable, cons []solver.Constraint) (solver.Result, *solver.Model) {
	return cs.CheckComponents(context.Background(), tbl, solvertest.Components(cons))
}

func renderCons(tbl *solver.VarTable, cons []solver.Constraint) []string {
	out := make([]string, len(cons))
	for i, c := range cons {
		out[i] = c.String(tbl)
	}
	return out
}

func TestPartitionDisjointComponents(t *testing.T) {
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	z := tbl.NewVar("z")
	w := tbl.NewVar("w")
	cons := []solver.Constraint{
		solver.Le(solver.VarExpr(x), solver.ConstExpr(5)),   // comp A
		solver.Le(solver.VarExpr(y), solver.VarExpr(z)),     // comp B
		solver.Ge(solver.VarExpr(x), solver.ConstExpr(1)),   // comp A
		solver.Le(solver.VarExpr(z), solver.ConstExpr(9)),   // comp B (shares z)
		solver.Eq(solver.VarExpr(w), solver.ConstExpr(3)),   // comp C
		solver.Le(solver.ConstExpr(0), solver.ConstExpr(1)), // ground
		solver.Ne(solver.ConstExpr(2), solver.ConstExpr(3)), // ground (merges with above)
	}
	comps := solvertest.Partition(cons)
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4: %v", len(comps), comps)
	}
	// Total constraint count preserved.
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != len(cons) {
		t.Errorf("constraints lost: %d of %d", total, len(cons))
	}
	// Variable-disjointness.
	seen := make(map[solver.Var]int)
	for ci, comp := range comps {
		for _, c := range comp {
			for _, tm := range c.E.Terms {
				if prev, ok := seen[tm.Var]; ok && prev != ci {
					t.Errorf("variable %d appears in components %d and %d", tm.Var, prev, ci)
				}
				seen[tm.Var] = ci
			}
		}
	}
}

func TestPartitionTransitiveLinking(t *testing.T) {
	tbl := solver.NewVarTable()
	a := tbl.NewVar("a")
	b := tbl.NewVar("b")
	c := tbl.NewVar("c")
	cons := []solver.Constraint{
		solver.Le(solver.VarExpr(a), solver.VarExpr(b)), // links a-b
		solver.Le(solver.VarExpr(b), solver.VarExpr(c)), // links b-c => one component
	}
	comps := solvertest.Partition(cons)
	if len(comps) != 1 {
		t.Fatalf("transitively linked constraints split into %d components", len(comps))
	}
}

func TestPartitionEmptyAndSingle(t *testing.T) {
	if solvertest.Partition(nil) != nil {
		t.Error("solvertest.Partition(nil) should be nil")
	}
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	comps := solvertest.Partition([]solver.Constraint{solver.Le(solver.VarExpr(x), solver.ConstExpr(1))})
	if len(comps) != 1 || len(comps[0]) != 1 {
		t.Errorf("single constraint partition: %v", comps)
	}
}

func TestPartitionGroundOnly(t *testing.T) {
	// A conjunction of variable-free constraints is a single component: all
	// ground constraints anchor to one synthetic node.
	cons := []solver.Constraint{
		solver.Le(solver.ConstExpr(0), solver.ConstExpr(1)),
		solver.Ne(solver.ConstExpr(2), solver.ConstExpr(3)),
		solver.Ge(solver.ConstExpr(5), solver.ConstExpr(4)),
	}
	comps := solvertest.Partition(cons)
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("ground-only partition: %v, want one 3-constraint component", comps)
	}
}

func TestPartitionSingleSharedVarChain(t *testing.T) {
	// Every constraint mentions x plus one private variable: x welds the
	// whole conjunction into a single component.
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	var cons []solver.Constraint
	for i := 0; i < 5; i++ {
		p := tbl.NewVar("p")
		cons = append(cons, solver.Le(solver.VarExpr(x).Add(solver.VarExpr(p)), solver.ConstExpr(int64(i))))
	}
	comps := solvertest.Partition(cons)
	if len(comps) != 1 {
		t.Fatalf("shared-variable chain split into %d components", len(comps))
	}
	if len(comps[0]) != len(cons) {
		t.Fatalf("component dropped constraints: %d of %d", len(comps[0]), len(cons))
	}
}

func TestPartitionOrderingDeterministic(t *testing.T) {
	// Components are emitted in order of their first constraint, and each
	// component preserves the conjunction's internal order — repeated calls
	// must agree exactly (cache keys depend on it).
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	z := tbl.NewVar("z")
	cons := []solver.Constraint{
		solver.Le(solver.VarExpr(y), solver.ConstExpr(2)), // component of y — first seen
		solver.Le(solver.VarExpr(x), solver.ConstExpr(5)), // component of x
		solver.Ge(solver.VarExpr(z), solver.ConstExpr(1)), // component of z
		solver.Ge(solver.VarExpr(y), solver.ConstExpr(0)), // joins y's component
	}
	first := solvertest.Partition(cons)
	if len(first) != 3 {
		t.Fatalf("components = %d, want 3", len(first))
	}
	if len(first[0]) != 2 || first[0][0].E.Terms[0].Var != y {
		t.Fatalf("first component is not y's (order not first-index): %v", first)
	}
	if first[0][1].Op != solver.OpLe || first[0][0].Op != solver.OpLe {
		// first[0] = [y<=2, y>=0] in original order; y>=0 is Le of -y.
		t.Logf("component internal order: %v", first[0])
	}
	for trial := 0; trial < 10; trial++ {
		again := solvertest.Partition(cons)
		if len(again) != len(first) {
			t.Fatalf("trial %d: component count changed", trial)
		}
		for i := range first {
			if len(again[i]) != len(first[i]) {
				t.Fatalf("trial %d: component %d size changed", trial, i)
			}
			for j := range first[i] {
				if again[i][j].String(nil) != first[i][j].String(nil) {
					t.Fatalf("trial %d: component %d constraint %d differs", trial, i, j)
				}
			}
		}
	}
}

func TestCheckPartitionedEquivalence(t *testing.T) {
	// Random systems: CheckComponents over the reference partition must agree with a monolithic Check.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		tbl := solver.NewVarTable()
		nv := 2 + rng.Intn(5)
		vars := make([]solver.Var, nv)
		for i := range vars {
			vars[i] = tbl.NewVarBounded("v", -5, 5)
		}
		nc := 1 + rng.Intn(6)
		cons := make([]solver.Constraint, 0, nc)
		for i := 0; i < nc; i++ {
			// Sparse constraints touch 1-2 variables, creating several
			// independent components in most trials.
			e := solver.ConstExpr(int64(rng.Intn(7) - 3))
			e = e.Add(solver.VarExpr(vars[rng.Intn(nv)]).MulConst(int64(rng.Intn(3) - 1)))
			if rng.Intn(2) == 0 {
				e = e.Add(solver.VarExpr(vars[rng.Intn(nv)]).MulConst(int64(rng.Intn(3) - 1)))
			}
			op := []solver.ConstraintOp{solver.OpLe, solver.OpEq, solver.OpNe}[rng.Intn(3)]
			cons = append(cons, solver.Constraint{E: e, Op: op})
		}
		mono, monoModel := solver.New().Check(tbl, cons)
		cs := solver.NewCached(solver.New())
		part, partModel := checkPartitioned(cs, tbl, cons)
		if mono == solver.Unknown || part == solver.Unknown {
			continue
		}
		if mono != part {
			t.Fatalf("trial %d: monolithic=%v partitioned=%v for %v",
				trial, mono, part, renderCons(tbl, cons))
		}
		if part == solver.Sat {
			for _, c := range cons {
				if !c.Holds(partModel) {
					t.Fatalf("trial %d: partitioned model %v violates %s",
						trial, partModel, c.String(tbl))
				}
			}
			for _, c := range cons {
				if !c.Holds(monoModel) {
					t.Fatalf("trial %d: monolithic model violates %s", trial, c.String(tbl))
				}
			}
		}
	}
}

func TestCheckPartitionedComponentCaching(t *testing.T) {
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	cs := solver.NewCached(solver.New())
	base := []solver.Constraint{solver.Ge(solver.VarExpr(x), solver.ConstExpr(3)), solver.Le(solver.VarExpr(x), solver.ConstExpr(9))}
	res, _ := checkPartitioned(cs, tbl, base)
	if res != solver.Sat {
		t.Fatal(res)
	}
	missesBefore := cs.Misses
	// Adding an independent constraint about y re-solves only the y
	// component: the x component hits the cache.
	grown := append(append([]solver.Constraint(nil), base...), solver.Ge(solver.VarExpr(y), solver.ConstExpr(1)))
	res, m := checkPartitioned(cs, tbl, grown)
	if res != solver.Sat {
		t.Fatal(res)
	}
	if m.Value(x) < 3 || m.Value(x) > 9 || m.Value(y) < 1 {
		t.Errorf("merged model = %v", m)
	}
	if cs.Hits == 0 {
		t.Errorf("x-component did not hit the cache (hits=%d misses=%d->%d)",
			cs.Hits, missesBefore, cs.Misses)
	}
}

func TestCheckPartitionedUnsatComponent(t *testing.T) {
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	cons := []solver.Constraint{
		solver.Ge(solver.VarExpr(x), solver.ConstExpr(0)), // sat component
		solver.Lt(solver.VarExpr(y), solver.VarExpr(y)),   // unsat component
	}
	cs := solver.NewCached(solver.New())
	res, _ := checkPartitioned(cs, tbl, cons)
	if res != solver.Unsat {
		t.Errorf("result = %v, want unsat", res)
	}
}
