package symexec

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/solver"
)

// BenchmarkSymexecConcreteChain measures single-path symbolic execution
// (everything concrete: the interpreter-parity fast path).
func BenchmarkSymexecConcreteChain(b *testing.B) {
	prog := bytecode.MustCompile("conc", `
func main() int {
  int s = 0;
  for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
  return s;
}`)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		ex := New(prog, nil, DefaultOptions())
		res := ex.Run()
		if res.Paths != 1 || res.Forks != 0 {
			b.Fatalf("res=%+v", res)
		}
	}
}

// BenchmarkSymexecSymbolicLoop measures a guard-forking loop over a
// symbolic bound — the copy-loop shape of every evaluation program.
func BenchmarkSymexecSymbolicLoop(b *testing.B) {
	prog := bytecode.MustCompile("symloop", `
func main() int {
  int x = input_int("x");
  int i = 0;
  while (i < x) {
    if (i >= 64) { return i; }
    i = i + 1;
  }
  return i;
}`)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		opts := DefaultOptions()
		opts.StopAtFirstVuln = false
		ex := New(prog, nil, opts)
		res := ex.Run()
		if res.Paths == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkSymexecOverflowHunt measures the end-to-end vulnerability
// search on the canonical string-copy overflow.
func BenchmarkSymexecOverflowHunt(b *testing.B) {
	prog := bytecode.MustCompile("hunt", `
func sink(string s) void {
  buf dst[32];
  int i = 0;
  while (i < len(s)) {
    bufwrite(dst, i, char(s, i));
    i = i + 1;
  }
  return;
}
func main() int {
  sink(input_string("p"));
  return 0;
}`)
	spec := &InputSpec{MaxStrLen: 64}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		ex := New(prog, spec, DefaultOptions())
		res := ex.Run()
		if !res.Found() {
			b.Fatal("overflow not found")
		}
	}
}

// benchForkState builds a state shaped like mid-exploration reality: a
// deep call stack with populated locals/stacks, globals, a written buffer,
// a grown path condition and its variable bookkeeping.
func benchForkState(depth, localsPerFrame, nCons int) *State {
	tbl := solver.NewVarTable()
	st := &State{ID: 1, Status: StatusActive}
	for d := 0; d < depth; d++ {
		fr := &Frame{Fn: &bytecode.Fn{Name: "f"}, PC: d}
		for l := 0; l < localsPerFrame; l++ {
			fr.Locals = append(fr.Locals, IntVal(int64(d*100+l)))
		}
		fr.Stack = append(fr.Stack, IntVal(int64(d)))
		st.Frames = append(st.Frames, fr)
	}
	for g := 0; g < 8; g++ {
		st.Globals = append(st.Globals, IntVal(int64(g)))
	}
	buf := NewSymBuffer(64)
	st.setBufCell(buf, 0, IntVal(1))
	for i := 0; i < nCons; i++ {
		v := tbl.NewVarBounded("v", 0, 255)
		st.AddConstraint(solver.Ge(solver.VarExpr(v), solver.ConstExpr(int64(i%16))))
	}
	return st
}

// legacyFork reproduces the pre-copy-on-write fork: deep-copy every frame,
// the globals, every chunk of the path condition, its index and the
// trace, and the buffer heap. Components need no copy: the fresh owner
// token freezes them. Kept as the benchmark baseline for State.fork.
func legacyFork(st *State) *State {
	ns := &State{ID: -1, Status: StatusActive, Depth: st.Depth,
		PathIndex: st.PathIndex, Diverted: st.Diverted, Revived: st.Revived,
		LastModel: st.LastModel, qm: st.qm, qmPrev: st.qmPrev, tok: new(ownerToken)}
	ns.Frames = make([]*Frame, len(st.Frames))
	for i, f := range st.Frames {
		ns.Frames[i] = f.ownedCopy()
	}
	ns.Globals = append([]Value(nil), st.Globals...)
	pc := st.pc()
	ns.path = &pathStore{owner: ns.tok,
		pc: pathCond{cons: deepCopyVec(pc.cons, ns.tok), comps: deepCopyVec(pc.comps, ns.tok),
			vars: deepCopyVec(pc.vars, ns.tok), mask0: pc.mask0, masks: deepCopyVec(pc.masks, ns.tok), ground: pc.ground, digest: pc.digest},
		trace: deepCopyVec(st.store().trace, ns.tok)}
	if st.heap != nil {
		ns.heap = make(map[*SymBuffer]*bufCells, len(st.heap))
		for b, c := range st.heap {
			ns.heap[b] = &bufCells{owner: ns.tok, cells: deepCopyVec(c.cells, ns.tok), smeared: c.smeared}
		}
	}
	return ns
}

// deepCopyVec copies every chunk of v under tok.
func deepCopyVec[T any](v cowVec[T], tok *ownerToken) cowVec[T] {
	out := cowVec[T]{chunks: make([]*vecChunk[T], len(v.chunks)), own: tok, n: v.n}
	for i, ch := range v.chunks {
		if ch != nil {
			out.chunks[i] = &vecChunk[T]{owner: tok, data: copyTo(ch.data, 0, 0)}
		}
	}
	return out
}

// BenchmarkForkDeepCopy is the old eager fork on a deep state.
func BenchmarkForkDeepCopy(b *testing.B) {
	st := benchForkState(8, 16, 32)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if legacyFork(st) == nil {
			b.Fatal("nil fork")
		}
	}
}

// BenchmarkForkCoW is the copy-on-write fork on the same state (only the
// top frame is copied eagerly).
func BenchmarkForkCoW(b *testing.B) {
	st := benchForkState(8, 16, 32)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if st.fork() == nil {
			b.Fatal("nil fork")
		}
	}
}

// BenchmarkForkCoWThenTouch forks and immediately performs the typical
// post-fork writes (append a constraint, mutate the top frame), charging
// the copy-on-write costs a real fork incurs on its first step.
func BenchmarkForkCoWThenTouch(b *testing.B) {
	st := benchForkState(8, 16, 32)
	tbl := solver.NewVarTable()
	v := tbl.NewVarBounded("w", 0, 255)
	c := solver.Ge(solver.VarExpr(v), solver.ConstExpr(1))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		child := st.fork()
		child.AddConstraint(c)
		child.Top().Locals[0] = IntVal(int64(n))
	}
}

// BenchmarkFullQuery is guided-deep's full-query shape: a state whose
// path condition holds 1,200 constraints in 570 components forks, the
// child commits a branch condition, and a full check of a new condition
// runs against the whole path condition. Like guided-deep's states, the
// parent has run a full query before, so its components carry records:
// the child's query looks up only the component the condition joins and
// the one its commit wrote, and answers the rest from their records.
func BenchmarkFullQuery(b *testing.B) {
	prog := bytecode.MustCompile("fq", `func main() int { return 0; }`)
	ex := New(prog, nil, DefaultOptions())
	st := &State{Status: StatusActive, Frames: []*Frame{{Fn: prog.Funcs[prog.MainIndex]}}}
	const comps = 570
	vars := make([]solver.Var, comps)
	for i := range vars {
		vars[i] = ex.Table.NewVarBounded("b", 0, 255)
		st.AddConstraint(solver.Ne(solver.VarExpr(vars[i]), solver.ConstExpr('<')))
		st.AddConstraint(solver.Ne(solver.VarExpr(vars[i]), solver.ConstExpr('>')))
	}
	for i := 0; i < 60; i++ {
		st.AddConstraint(solver.Le(solver.VarExpr(vars[i]), solver.ConstExpr(200)))
	}
	if ok, _ := ex.satisfiable(st, solver.Le(solver.VarExpr(vars[0]), solver.ConstExpr(250))); !ok {
		b.Fatal("parent's full query refuted")
	}
	query := func(n int) {
		child := st.fork()
		ex.commit(child, nil, solver.Ne(solver.VarExpr(vars[n*7%comps]), solver.ConstExpr('&')))
		if ok, _ := ex.satisfiable(child, solver.Le(solver.VarExpr(vars[n%comps]), solver.ConstExpr(100))); !ok {
			b.Fatal("full query refuted")
		}
	}
	for n := 0; n < comps*7; n++ {
		query(n) // warm the cache with every component the loop touches
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		query(n)
	}
}
