package symexec

import (
	"repro/internal/bytecode"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/trace"
)

// This file implements summary mining: the executor itself, run over one
// function from its entry. The mine is a private Executor on a fresh
// VarTable, so the i-th parameter is solver.Var(i) (NewVar hands out
// sequential IDs from 0) and mined constraints substitute directly against
// call-site argument expressions. It steps with a DFS scheduler at width 1
// and records each finished path's path condition and return value at the
// function's Leave event. Because the same step function runs the mine and
// the caller, a summary carries exactly what interpretation would have
// added to the path condition, bound compaction included.
//
// Mining is a pure, deterministic function of the bytecode: a private
// table, a private solver, a fixed scheduler, and a function that touches
// nothing outside its own frame. That purity is what makes the shared
// summary cache determinism-safe — a cache hit returns exactly what local
// mining would have computed, on any worker.

// Mining budgets. Summarizable functions are effect-free leaves, so these
// bounds are generous; a function that exceeds them gets a Failed entry and
// is interpreted forever after.
const (
	mineMaxPaths = 24
	mineMaxSteps = 4096
)

// mineSummary explores fn exhaustively (within budget) and returns its
// path summary. The result is complete: every path either appears in
// Paths or was proven infeasible, so applying the summary at a call site —
// forking once per path feasible under the caller's path condition — loses
// no behavior. The summary is marked Failed (a negative-cache entry;
// callers interpret instead) when fx puts fn outside the summarizable
// fragment, when the mine overruns a budget, or when a path's constraints
// or return value mention a variable other than a parameter (a nonlinear
// product's fresh variable, say), which no call site could instantiate.
func mineSummary(prog *bytecode.Program, fn *bytecode.Fn, fx *summary.FnEffects) *summary.FnSummary {
	sum := &summary.FnSummary{Name: fn.Name, NParams: len(fn.ParamTypes)}
	if !fx.Summarizable {
		sum.Failed = true
		return sum
	}
	var paths []summary.PathSummary
	record := func(_ *Executor, st *State, loc trace.Location, view *VarView) HookDecision {
		if loc.Kind == trace.EventLeave {
			p := summary.PathSummary{Cons: st.Constraints()}
			if ret, ok := view.Return(); ok {
				p.Ret = &ret.Lin
			}
			paths = append(paths, p)
		}
		return HookContinue
	}
	ex := newExecutor(prog, solver.NewVarTable(), nil, Options{Sched: NewDFS(), MaxSteps: mineMaxSteps, Hook: record})
	entry := &Frame{Fn: fn, Locals: make([]Value, fn.NumLocals)}
	for i := range fn.ParamTypes {
		entry.Locals[i] = LinVal(solver.VarExpr(ex.Table.NewVar(fn.Name + ".param")))
	}
	ex.addState(&State{ID: -1, Frames: []*Frame{entry}})
	ex.seeded = true
	res := ex.Run()
	if res.StepLimited || res.Exhausted || len(paths) > mineMaxPaths || !overParams(paths, sum.NParams) {
		sum.Failed = true
		return sum
	}
	sum.Paths = paths
	return sum
}

// overParams reports whether every constraint and return expression of
// paths mentions only the parameter variables Var(0..n-1).
func overParams(paths []summary.PathSummary, n int) bool {
	params := func(e solver.LinExpr) bool {
		for _, t := range e.Terms {
			if int(t.Var) >= n {
				return false
			}
		}
		return true
	}
	for _, p := range paths {
		for _, c := range p.Cons {
			if !params(c.E) {
				return false
			}
		}
		if p.Ret != nil && !params(*p.Ret) {
			return false
		}
	}
	return true
}
