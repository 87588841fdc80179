package symexec

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/minic"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/trace"
)

// CallStrategy decides what happens at an OpCall after the arguments are
// popped. handled=false hands the call back to the executor, which pushes a
// frame and interprets the body (today's behavior); handled=true means the
// strategy fully processed the call and (children, suspend, done) are the
// step outcome.
//
// Strategies are built once per run (NewCallStrategy) and shared read-only
// across the frontier engine's worker slots via the Options copy, so
// implementations must be safe for concurrent OnCall invocations on
// different states.
type CallStrategy interface {
	// Name returns the mode name ("interpret", "havoc", "summarize").
	Name() string
	OnCall(ex *Executor, st *State, callee *bytecode.Fn, args []Value) (children []*State, suspend, done, handled bool)
}

// Call-strategy mode names.
const (
	CallInterpret = "interpret"
	CallHavoc     = "havoc"
	CallSummarize = "summarize"
)

// NewCallStrategy builds the call strategy for prog. mode "" or
// "interpret" returns nil (the executor's native behavior). "havoc"
// interprets in-scope calls and havocs the rest. "summarize" additionally
// replaces summarizable in-scope calls by memoized path summaries from
// cache (a nil cache gets a private one; pass a shared cache to reuse
// summaries across candidate attempts).
func NewCallStrategy(prog *bytecode.Program, mode string, scope *summary.Policy, cache *summary.Cache) (CallStrategy, error) {
	switch mode {
	case "", CallInterpret:
		return nil, nil
	case CallHavoc:
		return &havocCalls{policy: scope, fx: summary.Analyze(prog)}, nil
	case CallSummarize:
		if cache == nil {
			cache = summary.NewCache()
		}
		return &summarizeCalls{
			havocCalls: havocCalls{policy: scope, fx: summary.Analyze(prog)},
			cache:      cache,
			hashes:     summary.HashProgram(prog),
		}, nil
	default:
		return nil, fmt.Errorf("symexec: unknown call mode %q (want interpret, havoc, or summarize)", mode)
	}
}

// havocCalls interprets in-scope calls and replaces out-of-scope calls by
// havoc summaries derived from the effect analysis.
type havocCalls struct {
	policy *summary.Policy
	fx     []summary.FnEffects
}

func (h *havocCalls) Name() string { return CallHavoc }

func (h *havocCalls) OnCall(ex *Executor, st *State, callee *bytecode.Fn, args []Value) ([]*State, bool, bool, bool) {
	if h.policy.InScope(callee.Name) || callee.Ret == minic.TypeBuf {
		// Buffer-returning functions cannot be havocked faithfully (the
		// caller would alias a buffer the havoc cannot produce); interpret
		// them even out of scope.
		return nil, false, false, false
	}
	children, suspend, done := ex.applyHavoc(st, callee, &h.fx[callee.Index], args)
	return children, suspend, done, true
}

// summarizeCalls layers memoized path summaries on top of havocCalls:
// out-of-scope calls havoc, summarizable in-scope calls apply mined
// summaries, everything else interprets.
type summarizeCalls struct {
	havocCalls
	cache  *summary.Cache
	hashes []uint64
}

func (s *summarizeCalls) Name() string { return CallSummarize }

func (s *summarizeCalls) OnCall(ex *Executor, st *State, callee *bytecode.Fn, args []Value) ([]*State, bool, bool, bool) {
	if !s.policy.InScope(callee.Name) {
		return s.havocCalls.OnCall(ex, st, callee, args)
	}
	if !s.fx[callee.Index].Summarizable || !intArgs(args) {
		return nil, false, false, false
	}
	key := s.hashes[callee.Index]
	sum, ok := s.cache.Lookup(key)
	if !ok {
		sum = mineSummary(ex.Prog, callee, &s.fx[callee.Index])
		s.cache.Store(key, sum)
	}
	if sum.Failed {
		return nil, false, false, false
	}
	children, suspend, done := ex.applySummary(st, callee, sum, args)
	return children, suspend, done, true
}

// intArgs reports whether every argument is a plain (non-deferred) integer
// expression — the form summary instantiation substitutes. Always true for
// summarizable callees (the type checker enforces int parameters, and
// deferred comparisons are materialized before calls); kept as a dynamic
// backstop.
func intArgs(args []Value) bool {
	for _, a := range args {
		if a.Kind != KindInt || a.IsCond {
			return false
		}
	}
	return true
}

// instExpr substitutes call-site argument expressions for the canonical
// parameter variables (Var(i) = i-th parameter) of a mined expression.
func instExpr(e solver.LinExpr, args []Value) solver.LinExpr {
	out := solver.ConstExpr(e.Const)
	for _, t := range e.Terms {
		out = out.Add(args[int(t.Var)].Lin.MulConst(t.Coeff))
	}
	return out
}

// instPath is one summary path instantiated at a call site.
type instPath struct {
	cons []solver.Constraint
	m    *solver.Model
	ret  *solver.LinExpr
}

// applySummary replaces a call by its memoized summary: the state forks
// once per path feasible under its path condition, each taking the path's
// instantiated entry constraints and return expression — constraint
// instantiation instead of interpretation.
//
// Hook parity with interpretation is preserved: the callee frame is pushed
// transiently so the Enter event (and a guidance suspension at it) sees the
// same state shape, each feasible path fires its own Leave event, and a
// Leave suspension parks the child via the pending-suspend marker. An Enter
// suspension leaves the frame in place and reports unhandled-style suspend:
// when the state resumes it interprets the body, which is always sound.
//
// No fresh solver variables are allocated (instantiation reuses argument
// expressions), constraints flow through addPathConstraint (keeping the
// rolling path-condition digests coherent), and forks are ordered by mined
// path order — so the epoch engine's determinism argument is untouched.
func (ex *Executor) applySummary(st *State, callee *bytecode.Fn, sum *summary.FnSummary, args []Value) (children []*State, suspend, done bool) {
	nf := &Frame{Fn: callee, Locals: make([]Value, callee.NumLocals)}
	copy(nf.Locals, args)
	st.Frames = append(st.Frames, nf)
	if dec := ex.fireLocation(st, trace.Location{Func: callee.Name, Kind: trace.EventEnter}, nil); dec == HookSuspend {
		return nil, true, false
	}

	// Instantiate each mined path and keep the feasible ones.
	feas := make([]instPath, 0, len(sum.Paths))
pathLoop:
	for i := range sum.Paths {
		p := &sum.Paths[i]
		inst := make([]solver.Constraint, 0, len(p.Cons))
		for _, c := range p.Cons {
			ic := solver.Constraint{E: instExpr(c.E, args), Op: c.Op}
			if ic.IsTriviallyTrue() {
				continue
			}
			if ic.IsTriviallyFalse() {
				continue pathLoop
			}
			inst = append(inst, ic)
		}
		ip := instPath{cons: inst}
		if p.Ret != nil {
			r := instExpr(*p.Ret, args)
			ip.ret = &r
		}
		if len(inst) > 0 {
			ok, m := ex.satisfiable(st, inst...)
			if !ok {
				continue
			}
			ip.m = m
		}
		feas = append(feas, ip)
	}
	// Model-directed path selection, mirroring pushBool/stepJump: the
	// current state follows the summary path its cached model already
	// satisfies (in a guided run the seeded model tracks the candidate
	// path — shunting st onto an arbitrary mined path would derail the
	// guided search); the other feasible paths become fork children.
	if st.LastModel != nil {
		for i := range feas {
			if allHold(feas[i].cons, st.LastModel) {
				picked := feas[i]
				copy(feas[1:i+1], feas[:i])
				feas[0] = picked
				break
			}
		}
	}
	ex.res.SummaryCalls++
	ex.res.SummaryPaths += len(feas)
	if len(feas) == 0 {
		// Every summarized path is refuted: the caller's own (optimistically
		// Unknown-satisfiable) path condition is infeasible.
		st.Status = StatusInfeasible
		return nil, false, true
	}

	// Fork siblings for the extra feasible paths before constraining st,
	// then apply path i to state i. Each state finishes the call exactly as
	// a return would: Leave event with the frame still pushed, pop,
	// ensureTopOwned, push the (instantiated) return value.
	children = make([]*State, len(feas)-1)
	for i := range children {
		children[i] = st.fork()
	}
	ex.res.Forks += len(children)
	states := append([]*State{st}, children...)
	for i, state := range states {
		p := feas[i]
		ex.commit(state, p.m, p.cons...)
		if len(feas) > 1 {
			state.Depth++
		}
		var ret Value
		var retPtr *Value
		if callee.Ret != minic.TypeVoid {
			if p.ret != nil {
				ret = LinVal(*p.ret)
			} else {
				ret = IntVal(0)
			}
			retPtr = &ret
		}
		dec := ex.fireLocation(state, trace.Location{Func: callee.Name, Kind: trace.EventLeave}, retPtr)
		state.Frames = state.Frames[:len(state.Frames)-1]
		state.ensureTopOwned()
		if retPtr != nil {
			state.push(ret)
		}
		if dec == HookSuspend {
			if i == 0 {
				suspend = true
			} else {
				state.pendingSuspend = true
			}
		}
	}
	return children, suspend, false
}

// applyHavoc replaces a call by its havoc summary: a fresh symbolic return
// value plus the callee's declared side-effect set — every transitively
// written global becomes a fresh symbolic value, and buffer arguments are
// smeared when the callee may write through them. Faults inside the
// havocked callee are NOT modeled (the documented soundness trade: havoc
// over-approximates data, not control — see DESIGN.md §13).
//
// The callee frame is pushed transiently across the Enter and Leave events
// so guidance hooks observe the same locations interpretation would emit.
// Fresh variables come from ex.newVar/ex.freshStr, which are lane-striped
// under the frontier engine, so worker-count invariance is preserved.
func (ex *Executor) applyHavoc(st *State, callee *bytecode.Fn, fx *summary.FnEffects, args []Value) (children []*State, suspend, done bool) {
	ex.res.HavocCalls++
	nf := &Frame{Fn: callee, Locals: make([]Value, callee.NumLocals)}
	copy(nf.Locals, args)
	st.Frames = append(st.Frames, nf)
	suspendEnter := ex.fireLocation(st, trace.Location{Func: callee.Name, Kind: trace.EventEnter}, nil) == HookSuspend

	for _, g := range fx.WritesGlobals {
		st.ensureGlobalsOwned()
		gi := ex.Prog.Globals[g]
		if gi.Type == minic.TypeString {
			st.Globals[g] = SymStrVal(ex.freshStr("havoc_"+gi.Name, DefaultMaxStrLen))
		} else {
			st.Globals[g] = LinVal(solver.VarExpr(ex.newVar("havoc_" + gi.Name)))
		}
	}
	if fx.WritesBuf {
		for _, a := range args {
			if a.Kind == KindBuf && a.Buf != nil {
				st.bufCellsForWrite(a.Buf).smeared = true
			}
		}
	}

	var ret Value
	var retPtr *Value
	switch callee.Ret {
	case minic.TypeInt:
		ret = LinVal(solver.VarExpr(ex.newVar("havoc_" + callee.Name)))
		retPtr = &ret
	case minic.TypeString:
		ret = SymStrVal(ex.freshStr("havoc_"+callee.Name, DefaultMaxStrLen))
		retPtr = &ret
	}
	suspendLeave := ex.fireLocation(st, trace.Location{Func: callee.Name, Kind: trace.EventLeave}, retPtr) == HookSuspend
	st.Frames = st.Frames[:len(st.Frames)-1]
	st.ensureTopOwned()
	if retPtr != nil {
		st.push(ret)
	}
	return nil, suspendEnter || suspendLeave, false
}
