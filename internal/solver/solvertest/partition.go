// Package solvertest holds the reference partition of a conjunction into
// independent components. No production code calls it: the executor keeps
// each state's components incrementally, and tests use Partition as the
// oracle those components must equal, order included.
package solvertest

import "repro/internal/solver"

// Partition splits a conjunction into independent components: two
// constraints belong to the same component iff they (transitively) share a
// variable. Constant-only constraints are gathered into one ground
// component, which sits at its first constraint's position like any
// other.
//
// Components are ordered by the first constraint index they contain, and
// constraints keep their relative order within a component.
func Partition(cons []solver.Constraint) [][]solver.Constraint {
	if len(cons) <= 1 {
		if len(cons) == 0 {
			return nil
		}
		return [][]solver.Constraint{cons}
	}
	// Union-find over constraint indices, linking through variables.
	parent := make([]int, len(cons))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
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
	varOwner := make(map[solver.Var]int)
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
	groups := make(map[int][]solver.Constraint)
	order := make([]int, 0, 8)
	for i, c := range cons {
		root := find(i)
		if _, seen := groups[root]; !seen {
			order = append(order, root)
		}
		groups[root] = append(groups[root], c)
	}
	out := make([][]solver.Constraint, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}

// Components is Partition in the form CachedSolver.CheckComponents takes,
// each component with its digest.
func Components(cons []solver.Constraint) []solver.Component {
	parts := Partition(cons)
	out := make([]solver.Component, len(parts))
	for i, p := range parts {
		out[i] = solver.Component{Cons: p, Digest: solver.DigestOf(p)}
	}
	return out
}
