package solver

import "context"

// Component is one independent component of a conjunction: constraints
// that share no variable with any other component's, with their digest.
type Component struct {
	Cons   []Constraint
	Digest Digest
	// Before counts the components of the conjunction between this one and
	// the one listed before it (or the start) that the caller answers from
	// its own records instead of listing them (see LookupComponents).
	Before int
	// Model is the component's model once LookupComponents has looked it
	// up and found it satisfiable.
	Model *Model
}

// LookupComponents decides a conjunction given as its independent
// components (KLEE's constraint independence): the conjunction is
// satisfiable iff every component is. comps lists, in the conjunction's
// component order, the components to look up; the caller answers every
// other one from its own record of an earlier check of that exact
// component through this solver, which found it satisfiable. Those are
// counted by the Before fields and after, the number that follow the last
// listed component.
//
// Each listed component goes through the cache pipeline on its own, in
// order, and its model is stored in it, so component verdicts
// memoize individually and a conjunction that grows by one constraint
// re-solves only the component it joins. The first Unsat component refutes
// the conjunction and ends the check. The components answered from
// records count in Reused as far as that walk reaches, so Hits + Reused is
// what Hits would count had every component been looked up.
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
func (cs *CachedSolver) LookupComponents(ctx context.Context, t *VarTable, comps []Component, after int) Result {
	result := Sat
	for i := range comps {
		c := &comps[i]
		cs.Reused += c.Before
		var res Result
		res, c.Model = cs.checkDigest(ctx, t, c.Cons, c.Digest)
		switch res {
		case Unsat:
			return Unsat
		case Unknown:
			result = Unknown
		}
	}
	cs.Reused += after
	return result
}

// CheckComponents decides a conjunction given as all of its independent
// components, looking each one up (see LookupComponents), and returns a
// model that is the union of the component models: the first component's
// model with the others' bindings added. A lone component's model is
// returned as it is, and an empty conjunction is looked up like any other.
func (cs *CachedSolver) CheckComponents(ctx context.Context, t *VarTable, comps []Component) (Result, *Model) {
	if len(comps) == 0 {
		return cs.checkDigest(ctx, t, nil, Digest{})
	}
	if res := cs.LookupComponents(ctx, t, comps, 0); res != Sat {
		return res, nil
	}
	if len(comps) == 1 {
		return Sat, comps[0].Model
	}
	merged := comps[0].Model.Edit()
	for _, c := range comps[1:] {
		merged.Merge(c.Model)
	}
	return Sat, merged.Model()
}
