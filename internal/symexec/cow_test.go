package symexec

import (
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/solver"
)

// cowState builds a two-frame state with globals, a buffer and a couple of
// path constraints — enough surface to probe every copy-on-write seam.
func cowState(t *testing.T) (*State, *solver.VarTable, solver.Var) {
	t.Helper()
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	caller := &bytecode.Fn{Name: "caller"}
	callee := &bytecode.Fn{Name: "callee"}
	st := &State{
		ID:     1,
		Status: StatusActive,
		Frames: []*Frame{
			{Fn: caller, PC: 3, Locals: []Value{IntVal(10), IntVal(11)}, Stack: []Value{IntVal(99)}},
			{Fn: callee, PC: 0, Locals: []Value{IntVal(20)}},
		},
		Globals: []Value{IntVal(7), IntVal(8)},
	}
	st.AddConstraint(solver.Ge(solver.VarExpr(x), solver.ConstExpr(0)))
	st.AddConstraint(solver.Le(solver.VarExpr(x), solver.ConstExpr(100)))
	return st, tbl, x
}

// digestInvariant asserts the rolling digest matches a from-scratch hash of
// the path condition.
func digestInvariant(t *testing.T, st *State, label string) {
	t.Helper()
	if got, want := st.PCDigest(), solver.DigestOf(st.Constraints()); got != want {
		t.Fatalf("%s: pcDigest %+v != DigestOf %+v", label, got, want)
	}
}

func TestForkTopFrameIsolation(t *testing.T) {
	st, _, _ := cowState(t)
	child := st.fork()
	// The top frame is copied eagerly: mutations on either side are private.
	st.Top().Locals[0] = IntVal(-1)
	st.push(IntVal(42))
	if v, _ := child.Top().Locals[0].IsConcreteInt(); v != 20 {
		t.Errorf("child top local changed with parent: %v", child.Top().Locals[0])
	}
	if len(child.Top().Stack) != 0 {
		t.Errorf("child top stack grew with parent: %d values", len(child.Top().Stack))
	}
	child.Top().Locals[0] = IntVal(-2)
	if v, _ := st.Top().Locals[0].IsConcreteInt(); v != -1 {
		t.Errorf("parent top local changed with child: %v", st.Top().Locals[0])
	}
}

func TestForkBuriedFrameCopyOnReturn(t *testing.T) {
	st, _, _ := cowState(t)
	child := st.fork()
	if st.Frames[0] != child.Frames[0] {
		t.Fatal("buried frame not shared after fork")
	}
	// Parent returns: the buried frame surfaces and must be privatized
	// before the parent mutates it.
	st.Frames = st.Frames[:1]
	st.ensureTopOwned()
	if st.Frames[0] == child.Frames[0] {
		t.Fatal("surfaced frame still shared after ensureTopOwned")
	}
	st.Top().Locals[1] = IntVal(-5)
	st.push(IntVal(1))
	if v, _ := child.Frames[0].Locals[1].IsConcreteInt(); v != 11 {
		t.Errorf("child's buried frame mutated through parent: %v", child.Frames[0].Locals[1])
	}
	if len(child.Frames[0].Stack) != 1 {
		t.Errorf("child's buried stack length = %d, want 1", len(child.Frames[0].Stack))
	}
	// The child's own return finds refs == 0 (parent released its claim) and
	// keeps the frame without another copy.
	child.Frames = child.Frames[:1]
	fr := child.Frames[0]
	child.ensureTopOwned()
	if child.Frames[0] != fr {
		t.Error("child copied a frame it exclusively owned")
	}
}

func TestForkGlobalsIsolation(t *testing.T) {
	st, _, _ := cowState(t)
	child := st.fork()
	st.ensureGlobalsOwned()
	st.Globals[0] = IntVal(-7)
	if v, _ := child.Globals[0].IsConcreteInt(); v != 7 {
		t.Errorf("child global changed with parent: %v", child.Globals[0])
	}
	child.ensureGlobalsOwned()
	child.Globals[1] = IntVal(-8)
	if v, _ := st.Globals[1].IsConcreteInt(); v != 8 {
		t.Errorf("parent global changed with child: %v", st.Globals[1])
	}
}

func TestForkBufferIsolation(t *testing.T) {
	st, _, _ := cowState(t)
	buf := NewSymBuffer(4)
	// Untouched buffers read as zeroes in any state (lazy materialization).
	if v, _ := st.bufCell(buf, 2).IsConcreteInt(); v != 0 {
		t.Fatalf("fresh buffer cell = %v, want 0", v)
	}
	st.setBufCell(buf, 2, IntVal(5))
	child := st.fork()
	// Parent write after the fork stays private.
	st.setBufCell(buf, 2, IntVal(6))
	if v, _ := child.bufCell(buf, 2).IsConcreteInt(); v != 5 {
		t.Errorf("child buffer cell changed with parent: %v", child.bufCell(buf, 2))
	}
	// Child smears its copy; the parent's stays addressable.
	child.bufCellsForWrite(buf).smeared = true
	if st.bufSmeared(buf) {
		t.Error("parent buffer smeared by child write")
	}
	if !child.bufSmeared(buf) {
		t.Error("child smear lost")
	}
	if v, _ := st.bufCell(buf, 2).IsConcreteInt(); v != 6 {
		t.Errorf("parent buffer cell = %v, want 6", st.bufCell(buf, 2))
	}
}

func TestForkConstraintPrefixSharing(t *testing.T) {
	st, tbl, x := cowState(t)
	y := tbl.NewVar("y")
	child := st.fork()
	if n := len(child.Constraints()); n != 2 {
		t.Fatalf("child constraints = %d, want 2", n)
	}
	if st.pc().cons.chunks[0] != child.pc().cons.chunks[0] {
		t.Fatal("constraint chunk not shared after fork")
	}
	// The parent's append goes through a chunk header of its own; the
	// child's view keeps the frozen original.
	st.AddConstraint(solver.Ge(solver.VarExpr(y), solver.ConstExpr(1)))
	if n := len(child.Constraints()); n != 2 {
		t.Fatalf("parent append visible to child: %d constraints", n)
	}
	if st.pc().cons.chunks[0] == child.pc().cons.chunks[0] {
		t.Fatal("parent appended into a chunk shared with the child")
	}
	digestInvariant(t, st, "parent after append")
	digestInvariant(t, child, "child after parent append")
	// The child appends independently without disturbing the parent's
	// third constraint.
	child.AddConstraint(solver.Le(solver.VarExpr(y), solver.ConstExpr(9)))
	if got := st.Constraints()[2].String(tbl); got != solver.Ge(solver.VarExpr(y), solver.ConstExpr(1)).String(tbl) {
		t.Errorf("parent constraint clobbered by child append: %s", got)
	}
	digestInvariant(t, child, "child after own append")
	// In-place compaction inside the shared prefix must copy first.
	tighter := solver.Ge(solver.VarExpr(x), solver.ConstExpr(5))
	st.AddConstraint(tighter)
	if got := st.Constraints()[0].String(tbl); got != tighter.String(tbl) {
		t.Fatalf("compaction did not replace the bound: %s", got)
	}
	if child.Constraints()[0].String(tbl) == tighter.String(tbl) {
		t.Error("parent compaction leaked into child's shared prefix")
	}
	digestInvariant(t, st, "parent after compaction")
	digestInvariant(t, child, "child after parent compaction")
}

func TestForkVarsBookkeepingIsolation(t *testing.T) {
	st, tbl, x := cowState(t)
	y := tbl.NewVar("y")
	child := st.fork()
	// Parent constrains a new variable; the child's index must not gain it.
	st.AddConstraint(solver.Ge(solver.VarExpr(y), solver.ConstExpr(1)))
	if child.pc().mentions(y) {
		t.Error("child variable index mutated through parent")
	}
	if !st.pc().mentions(y) || !st.pc().mentions(x) || !child.pc().mentions(x) {
		t.Error("mention bookkeeping lost")
	}
	if b := child.pc().bounds(y); b.HasLo {
		t.Errorf("child bounds gained the parent's bound on y: %+v", b)
	}
	if b := st.pc().bounds(y); !b.HasLo || b.Lo != 1 {
		t.Errorf("parent bounds on y = %+v, want lo 1", b)
	}
}

// TestForkDigestMatchesRebuild drives a deeper interleaving of forks,
// appends and compactions and re-checks the digest invariant at each step.
func TestForkDigestMatchesRebuild(t *testing.T) {
	st, tbl, x := cowState(t)
	states := []*State{st}
	for i := 0; i < 4; i++ {
		v := tbl.NewVar("g")
		next := states[len(states)-1]
		child := next.fork()
		child.AddConstraint(solver.Ge(solver.VarExpr(v), solver.ConstExpr(int64(i))))
		next.AddConstraint(solver.Le(solver.VarExpr(v), solver.ConstExpr(int64(i+10))))
		next.AddConstraint(solver.Ge(solver.VarExpr(x), solver.ConstExpr(int64(i+1))))
		states = append(states, child)
	}
	for i, s := range states {
		digestInvariant(t, s, "state "+string(rune('0'+i)))
	}
}

// TestCowVecTailClaim pins the append protocol of a frozen chunk: the first
// state to append after a fork writes into the shared array's spare
// capacity, the second copies, and neither sees the other's element.
func TestCowVecTailClaim(t *testing.T) {
	var parent cowVec[int]
	tok := new(ownerToken)
	for i := 0; i < 5; i++ {
		parent.push(tok, i)
	}
	frozen := parent.chunks[0]
	if len(frozen.data) == cap(frozen.data) {
		t.Fatalf("chunk has no spare capacity (len %d)", len(frozen.data))
	}
	child := parent // a fork: both sides write under new tokens
	parent.push(new(ownerToken), 50)
	child.push(new(ownerToken), 60)
	if &parent.chunks[0].data[0] != &frozen.data[0] {
		t.Error("first append after the fork copied the chunk")
	}
	if &child.chunks[0].data[0] == &frozen.data[0] {
		t.Error("second append after the fork shares the claimed array")
	}
	if got, want := parent.slice(), []int{0, 1, 2, 3, 4, 50}; !slices.Equal(got, want) {
		t.Errorf("parent = %v, want %v", got, want)
	}
	if got, want := child.slice(), []int{0, 1, 2, 3, 4, 60}; !slices.Equal(got, want) {
		t.Errorf("child = %v, want %v", got, want)
	}
}
