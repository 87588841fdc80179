package symexec

import (
	"slices"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/solver"
	"repro/internal/trace"
)

// StateStatus is a state's lifecycle phase.
type StateStatus int

// State statuses.
const (
	StatusActive StateStatus = iota + 1
	StatusSuspended
	StatusTerminated
	StatusFaulted
	StatusInfeasible
	// StatusDepthExhausted marks a path cut off by the MaxDepth call-stack
	// bound — a resource limit, not a normal exit, so reports and metrics
	// can tell truncated coverage from genuine termination.
	StatusDepthExhausted
)

// Frame is one activation record of the symbolic machine.
//
// Frames are shared between a state and its forked children copy-on-write:
// refs counts the extra states referencing the frame (0 = exclusively
// owned). The executor maintains the invariant that a state's top frame is
// always exclusively owned — every step mutates it (PC, operand stack) —
// so only frames buried under a call are ever shared, and they are
// privatized when a return exposes them (see State.ensureTopOwned).
//
// refs is atomic because under parallel frontier execution two states
// sharing a buried frame can fork (increment) and return (decrement-and-
// copy) concurrently on different workers.
type Frame struct {
	Fn     *bytecode.Fn
	PC     int
	Locals []Value
	Stack  []Value

	refs atomic.Int32
}

// ownedCopy returns a private copy of the frame. Values are immutable
// (buffer cells live in the state heap), so slice copies suffice.
func (f *Frame) ownedCopy() *Frame {
	nf := &Frame{Fn: f.Fn, PC: f.PC}
	nf.Locals = append([]Value(nil), f.Locals...)
	nf.Stack = append([]Value(nil), f.Stack...)
	return nf
}

// State is one symbolic execution path in progress — the unit KLEE
// schedules. It owns a call stack, a snapshot of globals, the path
// condition, the trace of instrumentation locations it has crossed, and
// the guidance bookkeeping used by StatSym's state manager (candidate-path
// progress and diverted hops, §VI-C).
//
// Forking is copy-on-write throughout: frames below the top are shared
// with a reference count, globals are shared behind a dirty flag, and the
// buffer heap, the path condition (with its components and variable
// index) and the trace live in headers, chunks and components stamped
// with the state's owner token, so a write after a fork copies one chunk.
type State struct {
	ID     int
	Status StateStatus

	Frames  []*Frame
	Globals []Value

	// path holds the path condition and the trace; nil reads as empty.
	path *pathStore

	// Depth counts branch decisions taken; Forks counts forks performed
	// at this state (for statistics).
	Depth int

	// Guidance bookkeeping (maintained by the core guidance hook):
	// PathIndex is the index of the next candidate-path node expected,
	// Diverted is the number of hops off the candidate path, and Revived
	// marks a state resumed from the suspended pool (guidance then leaves
	// it alone so the search degenerates gracefully to pure symbolic
	// execution, as the paper's footnote 1 requires).
	PathIndex int
	Diverted  int
	Revived   bool

	// LastModel caches a satisfying assignment for the path condition. It
	// lets the executor skip solver calls when a new branch condition
	// already holds under the cached model (the standard KLEE fast path).
	// It is shared across forks; a model never changes once built.
	LastModel *solver.Model

	// qm is the model of the last satisfiable full query in the state's
	// lineage, which the next full query starts from (see fullQuery), and
	// qmPrev the query model it replaced, until the state commits a model
	// (settleQuery). Both are shared across forks and never mutated.
	qm, qmPrev *queryModel

	// held counts the leading path constraints known to hold under
	// LastModel; the model shortcut evaluates only the rest. The shortcut
	// extends it, an extension of the model keeps what the new bindings do
	// not touch, and commit installs a model derived from a solver answer
	// with the prefix that answer covers (Executor.derived), any other new
	// model with none.
	held int

	// heap maps buffer identities to their cell storage. Forks share the
	// map (heapShared), so both sides copy the map, the touched header, and
	// the touched chunk on first write — everything else stays shared.
	heap map[*SymBuffer]*bufCells

	// tok is the state's owner token (nil until the first write after a
	// fork): the path store, heap headers, cowVec chunks and path-condition
	// components stamped with it are this state's to mutate in place.
	tok *ownerToken

	// heapShared and globalsShared mark the heap map and Globals as shared
	// with another state; the next write copies first.
	heapShared    bool
	globalsShared bool

	// pendingSuspend marks a freshly forked child whose guidance hook asked
	// for suspension during the fork itself (a summary application fires
	// per-path Leave events inside one step). addState routes such children
	// to the suspended pool instead of the scheduler.
	pendingSuspend bool

	// seq is an insertion sequence number assigned by the executor; used
	// by schedulers for deterministic tie-breaking.
	seq int
}

// Seq returns the state's insertion sequence number (monotonically
// increasing across the run; later states have larger numbers).
func (st *State) Seq() int { return st.seq }

// Top returns the current (innermost) frame.
func (st *State) Top() *Frame { return st.Frames[len(st.Frames)-1] }

// push appends a value to the operand stack of the top frame.
func (st *State) push(v Value) {
	fr := st.Top()
	fr.Stack = append(fr.Stack, v)
}

// pop removes and returns the top operand.
func (st *State) pop() Value {
	fr := st.Top()
	v := fr.Stack[len(fr.Stack)-1]
	fr.Stack = fr.Stack[:len(fr.Stack)-1]
	return v
}

// queryModel is a full query's model m with what the next full query
// must repair in it: the slots whose bindings in m may not be their
// components' records (restore: the components the query's groups
// joined), and the variables it binds that no component of the path
// condition holds (fresh: the extras' variables the path condition did
// not mention, and any the state's model gained since). Every other
// binding of m is a recorded component's model, or belongs to a
// component without a record, which the next query looks up. recorded
// lists the slots the query recorded, for settleQuery.
type queryModel struct {
	m        *solver.Model
	restore  []int32
	fresh    []solver.Var
	recorded []int32
}

// binds reports whether the query model binds v.
func (qm *queryModel) binds(v solver.Var) bool {
	_, ok := qm.m.Get(v)
	return ok
}

// settleQuery leaves the state one query model after a commit. A state
// that commits the model its previous query model holds, as the side of
// a fork that keeps its model does, starts from that one again, with the
// slots the latest query recorded to restore too; so a state does not
// keep its fork sibling's model as its query model.
func (st *State) settleQuery() {
	prev := st.qmPrev
	if prev == nil {
		return
	}
	st.qmPrev = nil
	if prev.m == st.LastModel && st.qm.m != st.LastModel {
		st.qm = &queryModel{m: prev.m, restore: append(slices.Clip(prev.restore), st.qm.recorded...), fresh: prev.fresh}
	}
}

// pathStore is a state's path condition, a conjunction kept with its
// independent components, and its trace, the function entry/exit
// locations crossed. Forked states share it until one writes, which
// copies the header first (its vectors copy chunk by chunk later).
type pathStore struct {
	owner *ownerToken
	pc    pathCond
	trace cowVec[trace.Location]
}

// noPath is what a state without a path store reads.
var noPath pathStore

// store returns the state's path store for reading.
func (st *State) store() *pathStore {
	if st.path == nil {
		return &noPath
	}
	return st.path
}

// pc returns the state's path condition for reading.
func (st *State) pc() *pathCond { return &st.store().pc }

// pathForWrite returns the state's path store for writing under the
// state's token, copying the header first when another token owns it.
func (st *State) pathForWrite() (*pathStore, *ownerToken) {
	tok := st.owner()
	if st.path == nil || st.path.owner != tok {
		p := *st.store()
		p.owner = tok
		st.path = &p
	}
	return st.path, tok
}

// PCDigest returns the rolling digest of the path condition. It always
// equals solver.DigestOf(st.Constraints()).
func (st *State) PCDigest() solver.Digest {
	return solver.Digest{Sum: st.pc().sum, N: st.pc().len()}
}

// Constraints returns a copy of the path condition.
func (st *State) Constraints() []solver.Constraint { return st.pc().cons.slice() }

// Trace returns a copy of the function entry/exit locations crossed.
func (st *State) Trace() []trace.Location { return st.store().trace.slice() }

// AddConstraint adds c to the path condition as a branch commit does.
func (st *State) AddConstraint(c solver.Constraint) { addPathConstraint(st, c) }

// owner returns the state's owner token, minting one after a fork.
func (st *State) owner() *ownerToken {
	if st.tok == nil {
		st.tok = new(ownerToken)
	}
	return st.tok
}

// pcHolds reports whether every path constraint holds under LastModel,
// evaluating only those past the held prefix, and records how far they
// hold.
func (st *State) pcHolds() bool {
	pc := st.pc()
	for i := st.held; i < pc.len(); i++ {
		if !pc.cons.at(i).Holds(st.LastModel) {
			st.held = i
			return false
		}
	}
	st.held = pc.len()
	return true
}

// extendedModel installs nm, the cached model plus bindings for vars, as
// the state's model. The held prefix carries over to nm up to the first
// constraint mentioning one of vars: nothing before it reads them. A
// query model that is the cached model moves to nm, with vars to drop at
// the next full query, so the state keeps one model, not two.
func (st *State) extendedModel(nm *solver.Model, vars ...solver.Var) {
	for _, v := range vars {
		if e := st.pc().vars.at(int(v)); e.slot != 0 && int(e.first) < st.held {
			st.held = int(e.first)
		}
	}
	if qm := st.qm; qm != nil && qm.m == st.LastModel && !slices.ContainsFunc(vars, qm.binds) {
		st.qm = &queryModel{m: nm, restore: qm.restore, fresh: append(slices.Clip(qm.fresh), vars...), recorded: qm.recorded}
	}
	st.LastModel = nm
}

// fork returns a copy-on-write child (the executor assigns it a fresh ID).
// Only the child's top frame is copied eagerly — both sides mutate their
// top frame on every step, so sharing it would be pure overhead — and
// everything else is shared until first write.
func (st *State) fork() *State {
	ns := &State{
		ID:        -1,
		Status:    StatusActive,
		Depth:     st.Depth,
		PathIndex: st.PathIndex,
		Diverted:  st.Diverted,
		Revived:   st.Revived,
		LastModel: st.LastModel,
		qm:        st.qm,
		qmPrev:    st.qmPrev,
		held:      st.held,
		path:      st.path,
	}
	// Frames: share all but the top, which the child copies eagerly.
	ns.Frames = make([]*Frame, len(st.Frames))
	copy(ns.Frames, st.Frames)
	top := len(st.Frames) - 1
	for _, f := range st.Frames[:top] {
		f.refs.Add(1)
	}
	ns.Frames[top] = st.Frames[top].ownedCopy()
	// Globals: share the slice behind a dirty flag on both sides.
	ns.Globals = st.Globals
	ns.globalsShared = true
	st.globalsShared = true
	// Heap map: shared behind a dirty flag on both sides.
	if st.heap != nil {
		ns.heap = st.heap
		ns.heapShared = true
		st.heapShared = true
	}
	// Dropping the parent's token (the child starts without one) freezes
	// the path store and every chunk and component both now reference, in
	// O(1) — no walk over the heap or the path condition. Either side's
	// next write re-owns just what it touches.
	st.tok = nil
	return ns
}

// ensureTopOwned privatizes the top frame if it is shared. The executor
// calls it whenever a return exposes a buried (potentially shared) frame,
// restoring the owned-top invariant before the next step mutates PC or
// the operand stack.
func (st *State) ensureTopOwned() {
	i := len(st.Frames) - 1
	if i < 0 {
		return
	}
	f := st.Frames[i]
	// Release protocol: a sibling sharing this frame can fork (refs++) or
	// return (refs--) concurrently. Seeing 0 means this state is the last
	// sharer standing — everyone else has copied out — so the frame is
	// kept and may be mutated without a copy. The copy must complete
	// BEFORE the decrement is published: a sibling only starts mutating
	// the frame after it observes refs==0, which orders its writes after
	// this state's reads. Copying after a successful decrement would let
	// the new sole owner's pushes race the copy.
	for {
		r := f.refs.Load()
		if r == 0 {
			return
		}
		nf := f.ownedCopy()
		if f.refs.CompareAndSwap(r, r-1) {
			st.Frames[i] = nf
			return
		}
	}
}

// ensureGlobalsOwned privatizes the globals slice before a write.
func (st *State) ensureGlobalsOwned() {
	if st.globalsShared {
		st.Globals = append([]Value(nil), st.Globals...)
		st.globalsShared = false
	}
}

// bufSmeared reports whether the buffer has been smeared by a
// symbolic-index write in this state.
func (st *State) bufSmeared(b *SymBuffer) bool {
	if c := st.heap[b]; c != nil {
		return c.smeared
	}
	return false
}

// bufCell reads one buffer cell. Buffers without heap storage — and
// unwritten cells of stored buffers — read as zeroes.
func (st *State) bufCell(b *SymBuffer, i int) Value {
	if c := st.heap[b]; c != nil {
		if v := c.cells.at(i); v.Kind != 0 {
			return v
		}
	}
	return IntVal(0)
}

// bufCellsForWrite returns the buffer's cell header, exclusively owned by
// this state: it privatizes the heap map if shared, materializes an empty
// header for untouched buffers, and copies headers owned elsewhere
// (sharing their frozen chunks).
func (st *State) bufCellsForWrite(b *SymBuffer) *bufCells {
	if st.heapShared {
		nh := make(map[*SymBuffer]*bufCells, len(st.heap)+2)
		for k, v := range st.heap {
			nh[k] = v
		}
		st.heap = nh
		st.heapShared = false
	}
	if st.heap == nil {
		st.heap = make(map[*SymBuffer]*bufCells, 4)
	}
	tok := st.owner()
	c := st.heap[b]
	if c == nil {
		c = &bufCells{owner: tok}
		st.heap[b] = c
		return c
	}
	if c.owner != tok {
		c = &bufCells{owner: tok, cells: c.cells, smeared: c.smeared}
		st.heap[b] = c
	}
	return c
}

// setBufCell writes one buffer cell, re-owning (or materializing) only the
// chunk that holds it.
func (st *State) setBufCell(b *SymBuffer, i int, v Value) {
	c := st.bufCellsForWrite(b)
	c.cells.set(c.owner, i, v)
}

// CurrentFunc returns the name of the function the state is executing.
func (st *State) CurrentFunc() string {
	if len(st.Frames) == 0 {
		return ""
	}
	return st.Top().Fn.Name
}
