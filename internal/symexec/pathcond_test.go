package symexec

import (
	"context"
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
	// checked holds the records requireRecords has compared with a
	// fresh check already, by component.
	checked map[*pcComp]*solver.Model
}

func newPCGen(seed int64, nvars int) *pcGen {
	g := &pcGen{rng: rand.New(rand.NewSource(seed)), tbl: solver.NewVarTable(), checked: map[*pcComp]*solver.Model{}}
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
// constraints, PCDigest, the variable index, the slot masks, every
// component's record, and the components of pc ∧ extras for no extras and
// for every prefix of extras — order, contents and digests equal to the
// reference partition's.
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
	requireRecords(t, label, st, g)
	for n := 0; n <= len(extras); n++ {
		query := append(slices.Clip(ref), extras[:n]...)
		got := partition(st, extras[:n])
		want := solvertest.Components(query)
		if len(got) != len(want) {
			t.Fatalf("%s: %d extras: %d components, want %d\nquery %v", label, n, len(got), len(want), renderPC(query))
		}
		for i := range want {
			if !slices.EqualFunc(got[i].Cons, want[i].Cons, sameConstraint) || got[i].Digest != want[i].Digest {
				t.Fatalf("%s: %d extras: component %d\n got %v %+v\nwant %v %+v", label, n, i,
					renderPC(got[i].Cons), got[i].Digest, renderPC(want[i].Cons), want[i].Digest)
			}
		}
	}
}

// partition returns the components of pc(st) ∧ extras as a full query
// sees them: what lookups lists, at the positions its Before fields and
// after give, and in every other position the next component, by slot,
// that no extra joins and that holds a record.
func partition(st *State, extras []solver.Constraint) []solver.Component {
	var q pcQuery
	pc := st.pc()
	look, after := pc.lookups(&q, extras)
	var recorded []solver.Component
	for s := 0; s < pc.comps.len(); s++ {
		joined := slices.ContainsFunc(q.touch, func(tc pcTouch) bool { return tc.slot == s })
		if c := pc.comps.at(s); c != nil && c.model != nil && !joined {
			recorded = append(recorded, solver.Component{Cons: c.cons, Digest: c.digest})
		}
	}
	var out []solver.Component
	fill := func(n int) {
		for ; n > 0 && len(recorded) > 0; n-- {
			out, recorded = append(out, recorded[0]), recorded[1:]
		}
		for ; n > 0; n-- {
			out = append(out, solver.Component{}) // a position without a component
		}
	}
	for _, c := range look {
		fill(c.Before)
		out = append(out, c)
	}
	fill(after)
	return append(out, recorded...) // records no position accounts for
}

// requireRecords checks that the slot masks mark exactly the live slots
// and, among them, those without a record, and that every record is what
// a fresh solver.Check of its component returns.
func requireRecords(t *testing.T, label string, st *State, g *pcGen) {
	t.Helper()
	pc := st.pc()
	for s := 0; s < max(pc.comps.len(), (pc.masks.len()+1)<<5); s++ {
		c, m := pc.comps.at(s), pc.mask(s>>5)
		live, bare := m.live>>(s&31)&1 == 1, m.bare>>(s&31)&1 == 1
		if live != (c != nil) || bare != (c != nil && c.model == nil) {
			t.Fatalf("%s: slot %d: masks say live=%v bare=%v, record %v", label, s, live, bare, c != nil && c.model != nil)
		}
		if c == nil || c.model == nil || g.checked[c] == c.model {
			continue
		}
		g.checked[c] = c.model
		res, m2 := solver.New().Check(g.tbl, c.cons)
		if res != solver.Sat || !c.model.Equal(m2) {
			t.Fatalf("%s: slot %d records Sat %v, a fresh check returns %v %v\ncomponent %v",
				label, s, c.model, res, m2, renderPC(c.cons))
		}
	}
}

// requireFullQuery runs a recording full query of pc(st) ∧ extras and
// checks its verdict and model against CheckComponents over the reference
// partition on a fresh solver: the model must be exactly the union of the
// component models, with no binding from anywhere else.
func requireFullQuery(t *testing.T, label string, ex *Executor, st *State, ref, extras []solver.Constraint) (solver.Result, *solver.Model) {
	t.Helper()
	res, m := ex.fullQuery(st, extras)
	wantRes, want := solver.NewCached(solver.New()).CheckComponents(context.Background(), ex.Table,
		solvertest.Components(append(slices.Clip(ref), extras...)))
	if res != wantRes || !m.Equal(want) {
		t.Fatalf("%s: full query %v %v, want %v %v\nquery %v", label, res, m, wantRes, want,
			renderPC(append(slices.Clip(ref), extras...)))
	}
	return res, m
}

// sameConstraint reports whether a and b render alike, comparing their
// fields first.
func sameConstraint(a, b solver.Constraint) bool {
	if a.Op == b.Op && a.E.Const == b.E.Const && slices.Equal(a.E.Terms, b.E.Terms) {
		return true
	}
	return a.String(nil) == b.String(nil)
}

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
// bound compactions, forks, checkpoint round trips and recording full
// queries over a population of states. After every step each state's
// components must equal the reference partition's on pc and on pc ∧ 1-3
// extras, its digest and variable index must match its reference path
// condition, every record must be what a fresh check of its component
// returns, and every other state must be untouched. Every full query's
// verdict and model must be exactly CheckComponents' over the reference
// partition, also after its state extended its model or committed the
// query's extras.
func TestPathCondMatchesPartition(t *testing.T) {
	prog := bytecode.MustCompile("pc", `func main() int { return 0; }`)
	mainFn := prog.Funcs[prog.MainIndex]
	reused := 0
	for seed := int64(1); seed <= 8; seed++ {
		g := newPCGen(seed, 16)
		ex := New(prog, nil, DefaultOptions())
		ex.Table = g.tbl
		root := &State{Status: StatusActive, Frames: []*Frame{{Fn: mainFn}}}
		states, refs := []*State{root}, [][]solver.Constraint{nil}
		// Ballast: more components than recordMinSlots, each over a
		// variable of its own, so that full queries record.
		for i := 0; i <= recordMinSlots; i++ {
			c := solver.Ne(solver.VarExpr(g.tbl.NewVarBounded("b", -20, 20)), solver.ConstExpr(5))
			root.AddConstraint(c)
			refs[0] = refAdd(refs[0], c)
		}
		for step := 0; step < 300; step++ {
			i := g.rng.Intn(len(states))
			st := states[i]
			var op string
			switch r := g.rng.Intn(20); {
			case r < 10:
				op = "append"
				c := g.constraint()
				st.AddConstraint(c)
				refs[i] = refAdd(refs[i], c)
			case r < 12:
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
			case r < 15 && len(states) < 12:
				op = "fork"
				states = append(states, st.fork())
				refs = append(refs, refs[i])
			case r < 16:
				op = "checkpoint"
				states[i] = roundTrip(t, st, prog)
			default:
				// A branch: two full queries, then a fork child may
				// commit the second's extras and model and the state
				// the first's, and the state may extend its model with
				// a variable the path condition does not mention. A
				// write may come between the queries, as the
				// definitions some steps add do.
				op = "query"
				label := fmt.Sprintf("seed %d step %d", seed, step)
				e1, e2 := g.extras(), g.extras()
				if g.rng.Intn(4) == 0 {
					e1 = nil // a check of the path condition alone
				}
				r1, m1 := requireFullQuery(t, label, ex, st, refs[i], e1)
				if g.rng.Intn(2) == 0 {
					c := g.constraint()
					st.AddConstraint(c)
					refs[i] = refAdd(refs[i], c)
				}
				r2, m2 := requireFullQuery(t, label, ex, st, refs[i], e2)
				if r2 == solver.Sat && len(states) < 12 && g.rng.Intn(2) == 0 {
					child, ref := st.fork(), refs[i]
					ex.commit(child, m2, e2...)
					for _, c := range e2 {
						ref = refAdd(ref, c)
					}
					states, refs = append(states, child), append(refs, ref)
				}
				if r1 == solver.Sat && g.rng.Intn(2) == 0 {
					ex.commit(st, m1, e1...)
					for _, c := range e1 {
						refs[i] = refAdd(refs[i], c)
					}
				}
				if g.rng.Intn(2) == 0 {
					ex.extendModel(st, g.tbl.NewVar("aux"), 7)
				}
			}
			extras := g.extras()
			for j := range states {
				requireOracle(t, fmt.Sprintf("seed %d step %d (%s on state %d): state %d", seed, step, op, i, j), states[j], refs[j], g, extras)
			}
		}
		reused += ex.Solver.Reused
	}
	if reused == 0 {
		t.Error("no full query answered a component from its record")
	}
}

// TestPathCondConcurrentForkCommit forks lineages off one shared ancestor
// and commits into them from concurrent goroutines, as the epoch engine's
// workers do, each lineage also issuing recording full queries through an
// executor of its own. The ancestor's components carry records, which
// every lineage reads and copies before recording into them. Every state
// must keep matching the reference partition, every full query must
// return the reference verdict and model, and the ancestor must stay
// untouched. Run it under -race.
func TestPathCondConcurrentForkCommit(t *testing.T) {
	prog := bytecode.MustCompile("pc", `func main() int { return 0; }`)
	g := newPCGen(42, 40)
	root := &State{Status: StatusActive, Frames: []*Frame{{Fn: prog.Funcs[prog.MainIndex]}}}
	var rootRef []solver.Constraint
	for i := 0; i < 200; i++ {
		// Single-variable constraints keep the ancestor's components
		// many, and a satisfiable ancestor's components all carry records.
		c := g.constraint()
		if _, _, single := c.E.SingleVar(); !single {
			continue
		}
		if res, _ := solver.New().Check(g.tbl, append(slices.Clip(rootRef), c)); res != solver.Sat {
			continue
		}
		root.AddConstraint(c)
		rootRef = refAdd(rootRef, c)
	}
	newEx := func() *Executor {
		ex := New(prog, nil, DefaultOptions())
		ex.Table = g.tbl
		return ex
	}
	if n := root.pc().comps.len(); n <= 32 {
		t.Fatalf("ancestor has %d components; more than 32 put slot masks past the first word", n)
	}
	if res, _ := requireFullQuery(t, "ancestor", newEx(), root, rootRef, nil); res != solver.Sat {
		t.Fatalf("ancestor's path condition is %v", res)
	}
	// Writes after the query leave some shared components without a
	// record: each lineage's first query records them in a copy.
	for i := 0; i < len(g.pool); i += 5 {
		c := solver.Ne(solver.VarExpr(g.pool[i]), solver.ConstExpr(11))
		root.AddConstraint(c)
		rootRef = refAdd(rootRef, c)
	}
	rootDigest := root.PCDigest()
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
			ex := newEx()
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
					extras := []solver.Constraint{solver.Ge(solver.VarExpr(v), solver.ConstExpr(int64(rng.Intn(5))))}
					query := append(slices.Clip(s.ref), extras...)
					want := solvertest.Components(query)
					got := partition(s.st, extras)
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
					res, m := ex.fullQuery(s.st, extras)
					wantRes, wantM := solver.NewCached(solver.New()).CheckComponents(context.Background(), g.tbl, want)
					if res != wantRes || !m.Equal(wantM) {
						t.Errorf("goroutine %d step %d: full query %v %v, want %v %v", w, i, res, m, wantRes, wantM)
						return
					}
				}
				if rng.Intn(2) == 0 {
					cur, ref = child, childRef
				}
			}
			if ex.Solver.Reused == 0 {
				t.Errorf("goroutine %d: no full query answered a component from its record", w)
			}
		}(w)
	}
	wg.Wait()
	if got := root.Constraints(); !slices.EqualFunc(got, rootRef, sameConstraint) || root.PCDigest() != rootDigest {
		t.Fatal("shared ancestor's path condition changed under concurrent forks")
	}
	requireRecords(t, "ancestor", root, g)
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
		st := &State{Status: StatusActive, Frames: []*Frame{{Fn: prog.Funcs[prog.MainIndex]}}, LastModel: new(solver.Model)}
		st.AddConstraint(tc.pc)
		if ok, m := ex.satisfiable(st, tc.extra); ok {
			t.Errorf("%s: pc ∧ extra reported satisfiable with model %v", tc.name, m)
		}
	}
}
