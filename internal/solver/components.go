package solver

import "context"

// Component is one independent component of a conjunction: constraints
// that share no variable with any other component's, with their digest.
type Component struct {
	Cons   []Constraint
	Digest Digest
}

// CheckComponents decides a conjunction given as its independent
// components (KLEE's constraint independence): the conjunction is
// satisfiable iff every component is, and a model is the union of the
// component models. Each component goes through the cache pipeline on its
// own, in order, so component verdicts memoize individually and a
// conjunction that grows by one constraint re-solves only the component
// it joins. The first Unsat component refutes the conjunction and ends the
// check. A lone component is checked as is and its model returned
// unmerged.
//
// The caller supplies the components, already split and digested: the
// executor keeps each state's components incrementally rather than
// re-partitioning its path condition per query. Cache keys, verdicts and
// models depend on the split, the order of the components and the order
// of constraints inside each, so callers that must reproduce a reference
// partition have to reproduce that order too (components by the position
// of their first constraint, constraints by position).
//
// The context reaches each solve. A cancelled check keeps walking the
// remaining components: cache hits are still served, and every solve
// returns Unknown, uncached.
func (cs *CachedSolver) CheckComponents(ctx context.Context, t *VarTable, comps []Component) (Result, Model) {
	switch len(comps) {
	case 0:
		return cs.checkDigest(ctx, t, nil, Digest{})
	case 1:
		return cs.checkDigest(ctx, t, comps[0].Cons, comps[0].Digest)
	}
	merged := make(Model, len(comps)) // about one binding per component
	result := Sat
	for _, comp := range comps {
		res, m := cs.checkDigest(ctx, t, comp.Cons, comp.Digest)
		switch res {
		case Unsat:
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
