package solver

import "context"

// Partition splits a conjunction into independent components: two
// constraints belong to the same component iff they (transitively) share a
// variable. Since components are variable-disjoint, the conjunction is
// satisfiable iff every component is, and a model is the union of the
// component models — KLEE's "independent constraint" optimization.
// Constant-only constraints are gathered into a single leading component.
//
// The result preserves determinism: components are ordered by the first
// constraint index they contain, and constraints keep their relative
// order within a component.
func Partition(cons []Constraint) [][]Constraint {
	if len(cons) <= 1 {
		if len(cons) == 0 {
			return nil
		}
		return [][]Constraint{cons}
	}
	// Union-find over constraint indices, linking through variables.
	parent := make([]int, len(cons))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	varOwner := make(map[Var]int)
	groundIdx := -1
	for i, c := range cons {
		if len(c.E.Terms) == 0 {
			if groundIdx == -1 {
				groundIdx = i
			} else {
				union(groundIdx, i)
			}
			continue
		}
		for _, tm := range c.E.Terms {
			if owner, ok := varOwner[tm.Var]; ok {
				union(owner, i)
			} else {
				varOwner[tm.Var] = i
			}
		}
	}
	groups := make(map[int][]Constraint)
	order := make([]int, 0, 8)
	for i, c := range cons {
		root := find(i)
		if _, seen := groups[root]; !seen {
			order = append(order, root)
		}
		groups[root] = append(groups[root], c)
	}
	out := make([][]Constraint, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}

// CheckPartitioned decides the conjunction by solving each independent
// component separately through the cache and merging the models. Component
// results memoize individually, so a long path condition that grows by one
// constraint re-solves only the affected component.
func (cs *CachedSolver) CheckPartitioned(t *VarTable, cons []Constraint) (Result, Model) {
	return cs.CheckPartitionedCtx(context.Background(), t, cons)
}

// CheckPartitionedCtx is CheckPartitioned under a context; the context is
// consulted per component, so a wide conjunction stops between components
// once the caller is cancelled.
func (cs *CachedSolver) CheckPartitionedCtx(ctx context.Context, t *VarTable, cons []Constraint) (Result, Model) {
	return cs.CheckPartitionedDigestCtx(ctx, t, cons, DigestOf(cons))
}

// CheckPartitionedDigestCtx is CheckPartitionedCtx for callers that
// maintain the whole-conjunction digest incrementally (the executor's
// rolling per-state digest). The digest keys the single-component path
// directly; the multi-component path digests each component from its
// per-constraint hashes, so component verdicts memoize individually and a
// path condition that grows by one constraint re-solves only the affected
// component.
func (cs *CachedSolver) CheckPartitionedDigestCtx(ctx context.Context, t *VarTable, cons []Constraint, d Digest) (Result, Model) {
	comps := Partition(cons)
	if len(comps) <= 1 {
		return cs.checkDigest(ctx, t, cons, d)
	}
	merged := make(Model)
	result := Sat
	for _, comp := range comps {
		res, m := cs.checkDigest(ctx, t, comp, DigestOf(comp))
		switch res {
		case Unsat:
			// One unsatisfiable component refutes the conjunction.
			return Unsat, nil
		case Unknown:
			result = Unknown
		case Sat:
			for k, v := range m {
				merged[k] = v
			}
		}
	}
	if result != Sat {
		return result, nil
	}
	return Sat, merged
}
