package summary

import "repro/internal/solver"

// PathSummary is one mined intra-procedural path of a function, expressed
// over canonical parameter variables: the i-th parameter is solver.Var(i)
// (the miner allocates them first on a fresh VarTable, so the IDs are
// guaranteed). Cons are the entry constraints that select this path; Ret is
// the return expression over the same variables (nil for void functions).
type PathSummary struct {
	Cons []solver.Constraint
	Ret  *solver.LinExpr
}

// FnSummary is the complete mined summary of one function: the disjunction
// of its path summaries covers every feasible intra-procedural path, so
// applying a summary call is exact — it forks once per feasible path under
// the caller's path condition and never loses a behavior.
//
// Failed summaries are negative-cache entries: mining rejected the
// function (outside the summarizable fragment, over budget, or a path
// mentioning a non-parameter variable such as a nonlinear product's fresh
// variable) and callers must fall back to interpretation. Caching the
// failure avoids re-mining on every call site.
type FnSummary struct {
	Name    string
	NParams int
	Failed  bool
	Paths   []PathSummary
}
