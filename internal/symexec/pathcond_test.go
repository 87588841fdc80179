package symexec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/solver"
	"repro/internal/solver/solvertest"
	"repro/internal/symexec/snapshot"
)

// refAdd is the reference for addPathConstraint on a plain slice: skip
// trivially true constraints, replace the first same-form single-variable
// bound when c is tighter, drop c when it is looser, append otherwise.
// The result never aliases cons.
func refAdd(cons []solver.Constraint, c solver.Constraint) []solver.Constraint {
	if c.IsTriviallyTrue() {
		return cons
	}
	if v, coeff, ok := c.E.SingleVar(); ok && (coeff == 1 || coeff == -1) && c.Op == solver.OpLe {
		for i, old := range cons {
			if old.Op != solver.OpLe {
				continue
			}
			if ov, oc, ook := old.E.SingleVar(); !ook || ov != v || oc != coeff {
				continue
			}
			if c.E.Const >= old.E.Const {
				out := slices.Clone(cons)
				out[i] = c
				return out
			}
			return cons
		}
	}
	return append(slices.Clip(cons), c)
}

// refBounds recomputes a variable's interval from a reference path
// condition: the tightest unit-coefficient bound or equality on it.
func refBounds(cons []solver.Constraint, v solver.Var) VarBounds {
	var b VarBounds
	lo := func(k int64) {
		if !b.HasLo || k > b.Lo {
			b.Lo, b.HasLo = k, true
		}
	}
	hi := func(k int64) {
		if !b.HasHi || k < b.Hi {
			b.Hi, b.HasHi = k, true
		}
	}
	for _, c := range cons {
		cv, coeff, ok := c.E.SingleVar()
		if !ok || cv != v || (coeff != 1 && coeff != -1) {
			continue
		}
		switch {
		case c.Op == solver.OpLe && coeff == 1:
			hi(-c.E.Const)
		case c.Op == solver.OpLe:
			lo(c.E.Const)
		case c.Op == solver.OpEq:
			lo(-c.E.Const * coeff)
			hi(-c.E.Const * coeff)
		}
	}
	return b
}

// pcGen draws constraints over a small variable pool, so that components
// form, merge and compact often.
type pcGen struct {
	rng  *rand.Rand
	tbl  *solver.VarTable
	pool []solver.Var
}

func newPCGen(seed int64, nvars int) *pcGen {
	g := &pcGen{rng: rand.New(rand.NewSource(seed)), tbl: solver.NewVarTable()}
	for i := 0; i < nvars; i++ {
		g.pool = append(g.pool, g.tbl.NewVarBounded(fmt.Sprintf("v%d", i), -20, 20))
	}
	return g
}

func (g *pcGen) term() solver.LinExpr {
	return solver.VarExpr(g.pool[g.rng.Intn(len(g.pool))]).MulConst(int64(g.rng.Intn(2)*2 - 1))
}

// constraint returns a single-variable bound (half the time, so
// compaction fires), a single-variable (dis)equality, a two- or
// three-variable constraint, or a ground constraint.
func (g *pcGen) constraint() solver.Constraint {
	k := solver.ConstExpr(int64(g.rng.Intn(21) - 10))
	ops := []solver.ConstraintOp{solver.OpLe, solver.OpEq, solver.OpNe}
	switch r := g.rng.Intn(20); {
	case r < 10:
		return solver.Constraint{E: g.term().Add(k), Op: solver.OpLe}
	case r < 13:
		return solver.Constraint{E: g.term().Add(k), Op: ops[1+g.rng.Intn(2)]}
	case r < 18:
		e := g.term().Add(g.term()).Add(k)
		if g.rng.Intn(3) == 0 {
			e = e.Add(g.term())
		}
		return solver.Constraint{E: e, Op: ops[g.rng.Intn(3)]}
	default:
		return solver.Constraint{E: k, Op: ops[g.rng.Intn(3)]}
	}
}

// extras returns 1-3 query extras: drawn like path constraints, over fresh
// variables the path condition cannot mention, or ground.
func (g *pcGen) extras() []solver.Constraint {
	out := make([]solver.Constraint, 1+g.rng.Intn(3))
	for i := range out {
		switch g.rng.Intn(6) {
		case 0:
			out[i] = solver.Ge(solver.VarExpr(g.tbl.NewVar("fresh")), solver.ConstExpr(int64(g.rng.Intn(5))))
		case 1:
			out[i] = solver.Constraint{E: solver.ConstExpr(int64(g.rng.Intn(3) - 1)), Op: solver.OpLe}
		default:
			out[i] = g.constraint()
		}
	}
	return out
}

// requireOracle checks st against its reference path condition: the
// constraints, PCDigest, the variable index, and the components of pc ∧
// extras for no extras and for every prefix of extras — order, contents
// and digests equal to the reference partition's.
func requireOracle(t *testing.T, label string, st *State, ref []solver.Constraint, g *pcGen, extras []solver.Constraint) {
	t.Helper()
	got := st.Constraints()
	if !slices.EqualFunc(got, ref, sameConstraint) {
		t.Fatalf("%s: path condition\n got %v\nwant %v", label, renderPC(got), renderPC(ref))
	}
	if d := solver.DigestOf(ref); st.PCDigest() != d {
		t.Fatalf("%s: PCDigest %+v, want %+v", label, st.PCDigest(), d)
	}
	for _, v := range g.pool {
		mentioned := slices.ContainsFunc(ref, func(c solver.Constraint) bool {
			return slices.ContainsFunc(c.E.Terms, func(tm solver.Term) bool { return tm.Var == v })
		})
		if st.pc().mentions(v) != mentioned {
			t.Fatalf("%s: mentions(%d) = %v, want %v", label, v, !mentioned, mentioned)
		}
		if b, want := st.pc().bounds(v), refBounds(ref, v); b != want {
			t.Fatalf("%s: bounds(%d) = %+v, want %+v", label, v, b, want)
		}
	}
	var q pcQuery
	for n := 0; n <= len(extras); n++ {
		query := append(slices.Clip(ref), extras[:n]...)
		want := solvertest.Components(query)
		comps := st.pc().components(&q, extras[:n])
		if len(comps) != len(want) {
			t.Fatalf("%s: %d extras: %d components, want %d\nquery %v", label, n, len(comps), len(want), renderPC(query))
		}
		for i := range want {
			if !slices.EqualFunc(comps[i].Cons, want[i].Cons, sameConstraint) || comps[i].Digest != want[i].Digest {
				t.Fatalf("%s: %d extras: component %d\n got %v %+v\nwant %v %+v", label, n, i,
					renderPC(comps[i].Cons), comps[i].Digest, renderPC(want[i].Cons), want[i].Digest)
			}
		}
	}
}

func sameConstraint(a, b solver.Constraint) bool { return a.String(nil) == b.String(nil) }

func renderPC(cons []solver.Constraint) []string {
	out := make([]string, len(cons))
	for i, c := range cons {
		out[i] = c.String(nil)
	}
	return out
}

// roundTrip encodes st with the checkpoint codec and decodes it afresh,
// which rebuilds the components and the variable index.
func roundTrip(t *testing.T, st *State, prog *bytecode.Program) *State {
	t.Helper()
	pi := make(progIndex, len(prog.Funcs))
	for i, f := range prog.Funcs {
		pi[f] = i
	}
	w := snapshot.NewWriter()
	if err := newStateEncoder(w).state(st, pi); err != nil {
		t.Fatal(err)
	}
	out, err := newStateDecoder(snapshot.NewReader(w.Bytes())).state(prog.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPathCondMatchesPartition runs random interleavings of appends,
// bound compactions, forks and checkpoint round trips over a population of
// states. After every step each state's components must equal the
// reference partition's on pc and on pc ∧ 1-3 extras, its digest and
// variable index must match its reference path condition, and every other
// state must be untouched.
func TestPathCondMatchesPartition(t *testing.T) {
	prog := bytecode.MustCompile("pc", `func main() int { return 0; }`)
	mainFn := prog.Funcs[prog.MainIndex]
	for seed := int64(1); seed <= 8; seed++ {
		g := newPCGen(seed, 10)
		root := &State{Status: StatusActive, Frames: []*Frame{{Fn: mainFn}}}
		states, refs := []*State{root}, [][]solver.Constraint{nil}
		for step := 0; step < 300; step++ {
			i := g.rng.Intn(len(states))
			st := states[i]
			var op string
			switch r := g.rng.Intn(20); {
			case r < 13:
				op = "append"
				c := g.constraint()
				st.AddConstraint(c)
				refs[i] = refAdd(refs[i], c)
			case r < 15:
				// Tighten an existing bound in place.
				op = "compact"
				for _, c := range refs[i] {
					if v, coeff, ok := c.E.SingleVar(); ok && c.Op == solver.OpLe && (coeff == 1 || coeff == -1) {
						tighter := solver.Constraint{E: solver.VarExpr(v).MulConst(coeff).AddConst(c.E.Const + 1), Op: solver.OpLe}
						st.AddConstraint(tighter)
						refs[i] = refAdd(refs[i], tighter)
						break
					}
				}
			case r < 18 && len(states) < 12:
				op = "fork"
				states = append(states, st.fork())
				refs = append(refs, refs[i])
			default:
				op = "checkpoint"
				states[i] = roundTrip(t, st, prog)
			}
			extras := g.extras()
			for j := range states {
				requireOracle(t, fmt.Sprintf("seed %d step %d (%s on state %d): state %d", seed, step, op, i, j), states[j], refs[j], g, extras)
			}
		}
	}
}

// TestPathCondConcurrentForkCommit forks lineages off one shared ancestor
// and commits into them from concurrent goroutines, as the epoch engine's
// workers do. Every state must keep matching the reference partition, and
// the ancestor must stay untouched. Run it under -race.
func TestPathCondConcurrentForkCommit(t *testing.T) {
	prog := bytecode.MustCompile("pc", `func main() int { return 0; }`)
	g := newPCGen(42, 24)
	root := &State{Status: StatusActive, Frames: []*Frame{{Fn: prog.Funcs[prog.MainIndex]}}}
	var rootRef []solver.Constraint
	for i := 0; i < 200; i++ {
		c := g.constraint()
		root.AddConstraint(c)
		rootRef = refAdd(rootRef, c)
	}
	const goroutines, steps = 4, 150
	lineages := make([]*State, goroutines)
	for w := range lineages {
		lineages[w] = root.fork()
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			cur, ref := lineages[w], rootRef
			var q pcQuery
			for i := 0; i < steps; i++ {
				child := cur.fork()
				childRef := ref
				// Both sides commit after the fork, like a branch does.
				v := g.pool[rng.Intn(len(g.pool))]
				c := solver.Le(solver.VarExpr(v), solver.VarExpr(g.pool[rng.Intn(len(g.pool))]).AddConst(int64(rng.Intn(7)-3)))
				neg := c.Negate()
				cur.AddConstraint(c)
				ref = refAdd(ref, c)
				child.AddConstraint(neg)
				childRef = refAdd(childRef, neg)
				for _, s := range []struct {
					st  *State
					ref []solver.Constraint
				}{{cur, ref}, {child, childRef}} {
					extra := solver.Ge(solver.VarExpr(v), solver.ConstExpr(int64(rng.Intn(5))))
					want := solvertest.Components(append(slices.Clip(s.ref), extra))
					got := s.st.pc().components(&q, []solver.Constraint{extra})
					if len(got) != len(want) || s.st.PCDigest() != solver.DigestOf(s.ref) {
						t.Errorf("goroutine %d step %d: %d components, want %d", w, i, len(got), len(want))
						return
					}
					for k := range want {
						if got[k].Digest != want[k].Digest {
							t.Errorf("goroutine %d step %d: component %d digest differs", w, i, k)
							return
						}
					}
				}
				if rng.Intn(2) == 0 {
					cur, ref = child, childRef
				}
			}
		}(w)
	}
	wg.Wait()
	if got := root.Constraints(); !slices.EqualFunc(got, rootRef, sameConstraint) || root.PCDigest() != solver.DigestOf(rootRef) {
		t.Fatal("shared ancestor's path condition changed under concurrent forks")
	}
}

// TestAddConstraintKeepsVarIndex pins AddConstraint to the commit path:
// the variable index and bounds must learn the constraint, or a later
// check treats the extra as disjoint from the path condition and solves
// it alone (reporting x ≤ 0 satisfiable after x ≥ 1).
func TestAddConstraintKeepsVarIndex(t *testing.T) {
	prog := bytecode.MustCompile("ac", `func main() int { return 0; }`)
	ex := New(prog, nil, DefaultOptions())
	x := ex.Table.NewVar("x")
	y := ex.Table.NewVar("y")
	for _, tc := range []struct {
		name      string
		pc, extra solver.Constraint
	}{
		// Refuted by the bounds fast path.
		{"single", solver.Ge(solver.VarExpr(x), solver.ConstExpr(1)), solver.Le(solver.VarExpr(x), solver.ConstExpr(0))},
		// Not a bound: refuted by the full query on the joined component.
		{"sum", solver.Ge(solver.VarExpr(x).Add(solver.VarExpr(y)), solver.ConstExpr(1)),
			solver.Le(solver.VarExpr(x).Add(solver.VarExpr(y)), solver.ConstExpr(0))},
	} {
		st := &State{Status: StatusActive, Frames: []*Frame{{Fn: prog.Funcs[prog.MainIndex]}}, LastModel: solver.Model{}}
		st.AddConstraint(tc.pc)
		if ok, m := ex.satisfiable(st, tc.extra); ok {
			t.Errorf("%s: pc ∧ extra reported satisfiable with model %v", tc.name, m)
		}
	}
}
