package symexec

import (
	"math/bits"
	"slices"

	"repro/internal/solver"
)

// pathCond is a state's path condition kept together with its independent
// components — KLEE's constraint independence, maintained on commit rather
// than recomputed per query. Two constraints share a component iff they
// (transitively) share a variable; the constraints without variables form
// one ground component. A component's slot is its creation order, which is
// the order of the components' first constraints, and each component lists
// its constraints in path-condition order with their digest. So the
// components of pc ∧ extras come out exactly as the reference partition
// (solvertest.Partition) of pc ++ extras orders them, and a query touches
// only the components its extras join.
//
// A component also records the verdict of its last check, so a full query
// looks up only the groups its extras form and the components without a
// record (lookups).
//
// All of it is shared with forked states copy-on-write under the state's
// owner token: the constraints, the slot table, the variable index and the
// slot masks past the first 32 slots are cowVecs, and a component is
// copied before its first write under a new token — a record is a write
// too.
type pathCond struct {
	cons   cowVec[solver.Constraint]
	comps  cowVec[*pcComp]  // by slot; nil once merged into a lower slot
	vars   cowVec[pcVar]    // by solver.Var
	mask0  slotMask         // slots 0-31, copied with the header
	masks  cowVec[slotMask] // slots 32 on, by slot / 32 - 1
	ground int              // 1 + slot of the ground component (0: none)
	// sum is the Sum of the path condition's digest, whose N is its length
	// (State.PCDigest). gen counts the writes to cons, appends and
	// replacements alike, so a path store and its gen name one path
	// condition (see derivedModel).
	sum, gen uint64
}

// slotMask describes 32 consecutive component slots, one bit each: live
// marks the slots that hold a component, bare the live slots whose
// component holds no record.
type slotMask struct{ live, bare uint32 }

// pcComp is one component: its constraints in path-condition order, their
// positions in the path condition, its variables with the interval the
// single-variable constraints imply for each, and its digest. Every
// constraint that tightens a bound joins or replaces one in the bounded
// variable's component, so a bound update never writes anything a commit
// does not write anyway.
//
// A component's record is the verdict of its last check: model is set
// when that check, a full query's lookup of exactly this component, found
// it satisfiable, and is the model it returned. Only the satisfiable
// verdict is recorded. Any write to the component drops the record: a
// commit, a bound compaction or a merge.
type pcComp struct {
	owner  *ownerToken
	idx    []int32
	cons   []solver.Constraint
	vars   []solver.Var
	bounds []VarBounds // parallel to vars
	digest solver.Digest
	model  *solver.Model // the record (nil: none)
}

// pcVar is a variable's entry in the index: the component that mentions
// it, the variable's position in that component's vars, and the position
// of the first path constraint that mentions it.
type pcVar struct {
	slot  int32 // 1 + component slot (0: not mentioned)
	pos   int32
	first int32
}

// VarBounds is the interval a state's single-variable path constraints
// imply for one variable.
type VarBounds struct {
	Lo, Hi       int64
	HasLo, HasHi bool
}

func (pc *pathCond) len() int { return pc.cons.len() }

// mentions reports whether the path condition constrains v.
func (pc *pathCond) mentions(v solver.Var) bool { return pc.vars.at(int(v)).slot != 0 }

// bounds returns the interval the path condition implies for v.
func (pc *pathCond) bounds(v solver.Var) VarBounds {
	e := pc.vars.at(int(v))
	if e.slot == 0 {
		return VarBounds{}
	}
	return pc.comps.at(int(e.slot) - 1).bounds[e.pos]
}

// noteBounds tightens v's interval in comp, v's component, by c when c
// is a unit-coefficient bound or equality on the one variable v.
func (pc *pathCond) noteBounds(comp *pcComp, c solver.Constraint) {
	v, coeff, single := c.E.SingleVar()
	if !single || (coeff != 1 && coeff != -1) {
		return
	}
	b := &comp.bounds[pc.vars.at(int(v)).pos]
	switch {
	case c.Op == solver.OpLe && coeff == 1: // v <= -Const
		if k := -c.E.Const; !b.HasHi || k < b.Hi {
			b.Hi, b.HasHi = k, true
		}
	case c.Op == solver.OpLe && coeff == -1: // v >= Const
		if k := c.E.Const; !b.HasLo || k > b.Lo {
			b.Lo, b.HasLo = k, true
		}
	case c.Op == solver.OpEq:
		k := -c.E.Const
		if coeff == -1 {
			k = c.E.Const
		}
		if !b.HasLo || k > b.Lo {
			b.Lo, b.HasLo = k, true
		}
		if !b.HasHi || k < b.Hi {
			b.Hi, b.HasHi = k, true
		}
	}
}

// boundIndex returns the position of the first single-variable bound
// coeff·v + k ≤ 0 in the path condition (-1: none). Such a bound mentions
// v, so only v's component is scanned.
func (pc *pathCond) boundIndex(v solver.Var, coeff int64) int {
	s := int(pc.vars.at(int(v)).slot) - 1
	if s < 0 {
		return -1
	}
	comp := pc.comps.at(s)
	for j, old := range comp.cons {
		if old.Op != solver.OpLe {
			continue
		}
		if ov, oc, ok := old.E.SingleVar(); ok && ov == v && oc == coeff {
			return int(comp.idx[j])
		}
	}
	return -1
}

// add appends c and files it under its component: the ground component
// when c has no variables, a new component when c mentions no variable of
// the path condition, and otherwise the lowest-slot component it joins,
// into which every other component it joins is merged. A bound c implies
// tightens its variable's interval.
func (pc *pathCond) add(tok *ownerToken, c solver.Constraint) {
	i := pc.cons.len()
	pc.cons.push(tok, c)
	h := solver.HashConstraint(c)
	pc.sum += h
	pc.gen++
	s := -1
	if len(c.E.Terms) == 0 {
		if pc.ground == 0 {
			pc.ground = pc.newComp(tok) + 1
		}
		s = pc.ground - 1
	}
	for _, tm := range c.E.Terms {
		if vs := int(pc.vars.at(int(tm.Var)).slot) - 1; vs >= 0 && (s < 0 || vs < s) {
			s = vs
		}
	}
	if s < 0 {
		s = pc.newComp(tok)
	}
	comp := pc.compForWrite(tok, s)
	for _, tm := range c.E.Terms {
		switch vs := int(pc.vars.at(int(tm.Var)).slot) - 1; {
		case vs < 0:
			pc.vars.set(tok, int(tm.Var), pcVar{slot: int32(s + 1), pos: int32(len(comp.vars)), first: int32(i)})
			comp.vars = append(comp.vars, tm.Var)
			comp.bounds = append(comp.bounds, VarBounds{})
		case vs != s:
			pc.absorb(tok, comp, s, vs)
		}
	}
	comp.idx = append(comp.idx, int32(i))
	comp.cons = append(comp.cons, c)
	comp.digest = comp.digest.Add(h)
	pc.noteBounds(comp, c)
}

// replace overwrites constraint i with c, a tighter bound on the same
// single variable (compaction), in the path condition and its component.
func (pc *pathCond) replace(tok *ownerToken, i int, c solver.Constraint) {
	old := pc.cons.at(i)
	pc.cons.set(tok, i, c)
	ho, hc := solver.HashConstraint(old), solver.HashConstraint(c)
	pc.sum += hc - ho
	pc.gen++
	v, _, _ := c.E.SingleVar()
	comp := pc.compForWrite(tok, int(pc.vars.at(int(v)).slot)-1)
	j, _ := slices.BinarySearch(comp.idx, int32(i))
	comp.cons[j] = c
	comp.digest = comp.digest.Remove(ho).Add(hc)
	pc.noteBounds(comp, c)
}

// newComp opens an empty component, without a record, in the next slot.
func (pc *pathCond) newComp(tok *ownerToken) int {
	s := pc.comps.len()
	pc.comps.push(tok, &pcComp{owner: tok})
	pc.setSlot(tok, s, true, true)
	return s
}

// mask returns the masks of slots 32w to 32w+31.
func (pc *pathCond) mask(w int) slotMask {
	if w == 0 {
		return pc.mask0
	}
	return pc.masks.at(w - 1)
}

// setSlot sets slot s's bits in the masks.
func (pc *pathCond) setSlot(tok *ownerToken, s int, live, bare bool) {
	m, bit := &pc.mask0, uint32(1)<<(s&31)
	if s >= 32 {
		m = pc.masks.ref(tok, s>>5-1)
	}
	m.live, m.bare = m.live&^bit, m.bare&^bit
	if live {
		m.live |= bit
	}
	if bare {
		m.bare |= bit
	}
}

// compForWrite returns component s for a write under tok, copied first
// unless tok owns it, with its record dropped.
func (pc *pathCond) compForWrite(tok *ownerToken, s int) *pcComp {
	c := pc.compOwned(tok, s)
	if c.model != nil {
		c.model = nil
		pc.setSlot(tok, s, true, true)
	}
	return c
}

// compOwned returns component s, copied first unless tok owns it.
func (pc *pathCond) compOwned(tok *ownerToken, s int) *pcComp {
	c := pc.comps.at(s)
	if c.owner == tok {
		return c
	}
	nc := &pcComp{
		owner:  tok,
		idx:    append(make([]int32, 0, len(c.idx)+1), c.idx...),
		cons:   append(make([]solver.Constraint, 0, len(c.cons)+1), c.cons...),
		vars:   append(make([]solver.Var, 0, len(c.vars)+1), c.vars...),
		bounds: append(make([]VarBounds, 0, len(c.bounds)+1), c.bounds...),
		digest: c.digest,
		model:  c.model,
	}
	pc.comps.set(tok, s, nc)
	return nc
}

// keep records model as the satisfiable verdict of component s, copying
// the component first unless tok owns it. A nil model (a verdict decoded
// without bindings) records nothing.
func (pc *pathCond) keep(tok *ownerToken, s int, model *solver.Model) {
	if model == nil {
		return
	}
	pc.compOwned(tok, s).model = model
	pc.setSlot(tok, s, true, false)
}

// absorb merges component from into dst, the component in slot s,
// interleaving their constraints by position, and retires slot from.
func (pc *pathCond) absorb(tok *ownerToken, dst *pcComp, s, from int) {
	src := pc.comps.at(from)
	n := len(dst.idx) + len(src.idx) + 1
	idx, cons := make([]int32, 0, n), make([]solver.Constraint, 0, n)
	for i, j := 0, 0; i < len(dst.idx) || j < len(src.idx); {
		if j == len(src.idx) || (i < len(dst.idx) && dst.idx[i] < src.idx[j]) {
			idx, cons = append(idx, dst.idx[i]), append(cons, dst.cons[i])
			i++
		} else {
			idx, cons = append(idx, src.idx[j]), append(cons, src.cons[j])
			j++
		}
	}
	dst.idx, dst.cons = idx, cons
	for j, v := range src.vars {
		e := pc.vars.ref(tok, int(v))
		e.slot, e.pos = int32(s+1), int32(len(dst.vars)+j)
	}
	dst.vars = append(dst.vars, src.vars...)
	dst.bounds = append(dst.bounds, src.bounds...)
	dst.digest = dst.digest.Join(src.digest)
	pc.comps.set(tok, from, nil)
	pc.setSlot(tok, from, false, false)
}

// pcQuery is an executor's scratch space for assembling one full query,
// reused so that assembly allocates nothing once warm.
type pcQuery struct {
	look   []solver.Component  // what the query looks up, in component order
	slots  []int               // parallel to look: the component's slot (-1: a group)
	cons   []solver.Constraint // the constraints of the groups
	root   []int               // union-find over the extras
	groups []pcGroup
	touch  []pcTouch
	order  []int // the groups with an anchor, by anchor
}

// pcGroup is a component of pc ∧ extras that contains extras: the extras
// with a common root plus every path-condition component they join.
type pcGroup struct {
	anchor     int // lowest slot joined (-1: none; it follows the path condition)
	start, end int // its constraints in pcQuery.cons
	digest     solver.Digest
}

// pcTouch records that a group joins the component in slot; pos is a
// cursor for interleaving the joined components.
type pcTouch struct {
	slot, group, pos int
}

// lookups lists what a full query of pc ∧ extras looks up, in the order of
// the reference partition of pc ++ extras (components by the position of
// their first constraint, constraints by position): every group the
// extras form with the path-condition components they join, and every
// component no extra joins that holds no record. The listed components'
// Before fields and after count the others, the components the query
// answers from their records. q.slots gives each listed component's slot
// (-1 for a group) and q.touch the slots the groups join, in order. The
// result aliases the path condition and q; it is valid until either
// changes.
func (pc *pathCond) lookups(q *pcQuery, extras []solver.Constraint) (look []solver.Component, after int) {
	pc.group(q, extras)
	q.order = q.order[:0]
	for gi, g := range q.groups {
		if g.anchor >= 0 {
			q.order = append(q.order, gi)
		}
	}
	// Anchors are distinct: a slot belongs to one group.
	slices.SortFunc(q.order, func(a, b int) int { return q.groups[a].anchor - q.groups[b].anchor })

	// A component's position is the number of components before it: the
	// live slots below its slot that no group joins, plus the groups
	// anchored below it. The groups without an anchor come last.
	q.look, q.slots = q.look[:0], q.slots[:0]
	prev, t, o := -1, 0, 0
	for w := 0; w<<5 < pc.comps.len(); w++ {
		for b := pc.mask(w).bare; b != 0; b &= b - 1 {
			s := w<<5 | bits.TrailingZeros32(b)
			for ; o < len(q.order) && q.groups[q.order[o]].anchor < s; o++ {
				t = q.touchedBelow(t, q.groups[q.order[o]].anchor)
				prev = q.listGroup(q.order[o], pc.liveBelow(q.groups[q.order[o]].anchor)-t+o, prev)
			}
			if t = q.touchedBelow(t, s); t < len(q.touch) && q.touch[t].slot == s {
				continue
			}
			c := pc.comps.at(s)
			prev = q.list(solver.Component{Cons: c.cons, Digest: c.digest}, s, pc.liveBelow(s)-t+o, prev)
		}
	}
	for ; o < len(q.order); o++ {
		t = q.touchedBelow(t, q.groups[q.order[o]].anchor)
		prev = q.listGroup(q.order[o], pc.liveBelow(q.groups[q.order[o]].anchor)-t+o, prev)
	}
	n := pc.liveBelow(pc.comps.len()) - len(q.touch) + len(q.order)
	for gi, g := range q.groups {
		if g.anchor < 0 {
			prev = q.listGroup(gi, n, prev)
			n++
		}
	}
	return q.look, n - 1 - prev
}

// list appends c, the component in slot (-1: a group) at position pos,
// after the one listed at position prev, and returns pos.
func (q *pcQuery) list(c solver.Component, slot, pos, prev int) int {
	c.Before = pos - prev - 1
	q.look, q.slots = append(q.look, c), append(q.slots, slot)
	return pos
}

// listGroup lists group gi at position pos (see list).
func (q *pcQuery) listGroup(gi, pos, prev int) int {
	g := &q.groups[gi]
	return q.list(solver.Component{Cons: q.cons[g.start:g.end], Digest: g.digest}, -1, pos, prev)
}

// touchedBelow advances t, a count of joined slots below some slot, to the
// count below s ≥ that slot.
func (q *pcQuery) touchedBelow(t, s int) int {
	for t < len(q.touch) && q.touch[t].slot < s {
		t++
	}
	return t
}

// liveBelow counts the components in slots below s.
func (pc *pathCond) liveBelow(s int) int {
	n := 0
	for w := 0; w < s>>5; w++ {
		n += bits.OnesCount32(pc.mask(w).live)
	}
	if s&31 != 0 {
		n += bits.OnesCount32(pc.mask(s>>5).live & (1<<(s&31) - 1))
	}
	return n
}

// group forms the groups of pc ∧ extras: the extras linked transitively,
// each with the path-condition components it joins and its constraints,
// interleaved by position, in q.cons. q.touch lists the joined slots in
// ascending order.
func (pc *pathCond) group(q *pcQuery, extras []solver.Constraint) {
	// Two extras share a component iff they are linked, transitively.
	q.root = q.root[:0]
	for j := range extras {
		q.root = append(q.root, j)
		for i := 0; i < j; i++ {
			if pc.linked(extras[i], extras[j]) {
				ri, rj := findRoot(q.root, i), findRoot(q.root, j)
				q.root[max(ri, rj)] = min(ri, rj)
			}
		}
	}
	q.groups, q.touch, q.cons = q.groups[:0], q.touch[:0], q.cons[:0]
	for r := range extras {
		if findRoot(q.root, r) != r {
			continue
		}
		gi, t0 := len(q.groups), len(q.touch)
		g := pcGroup{anchor: -1, start: len(q.cons)}
		for j := r; j < len(extras); j++ {
			if findRoot(q.root, j) != r {
				continue
			}
			if len(extras[j].E.Terms) == 0 && pc.ground != 0 {
				q.join(t0, gi, pc.ground-1, &g)
			}
			for _, tm := range extras[j].E.Terms {
				if s := int(pc.vars.at(int(tm.Var)).slot) - 1; s >= 0 {
					q.join(t0, gi, s, &g)
				}
			}
		}
		q.cons = pc.interleave(q.cons, q.touch[t0:])
		for _, tc := range q.touch[t0:] {
			g.digest = g.digest.Join(pc.comps.at(tc.slot).digest)
		}
		for j := r; j < len(extras); j++ {
			if findRoot(q.root, j) == r {
				q.cons = append(q.cons, extras[j])
				g.digest = g.digest.Add(solver.HashConstraint(extras[j]))
			}
		}
		g.end = len(q.cons)
		q.groups = append(q.groups, g)
	}
	slices.SortFunc(q.touch, func(a, b pcTouch) int { return a.slot - b.slot })
}

// join records that group gi, whose touches start at t0, joins slot s.
func (q *pcQuery) join(t0, gi, s int, g *pcGroup) {
	for _, tc := range q.touch[t0:] {
		if tc.slot == s {
			return
		}
	}
	q.touch = append(q.touch, pcTouch{slot: s, group: gi})
	if g.anchor < 0 || s < g.anchor {
		g.anchor = s
	}
}

// interleave appends the constraints of the components in touch, merged
// by position.
func (pc *pathCond) interleave(dst []solver.Constraint, touch []pcTouch) []solver.Constraint {
	if len(touch) == 1 {
		return append(dst, pc.comps.at(touch[0].slot).cons...)
	}
	for {
		best, bestIdx := -1, int32(0)
		for t := range touch {
			c := pc.comps.at(touch[t].slot)
			if touch[t].pos < len(c.idx) && (best < 0 || c.idx[touch[t].pos] < bestIdx) {
				best, bestIdx = t, c.idx[touch[t].pos]
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, pc.comps.at(touch[best].slot).cons[touch[best].pos])
		touch[best].pos++
	}
}

// linked reports whether two extras belong to one component of pc ∧
// extras directly: both ground, or a variable in common, or variables in
// one component of the path condition.
func (pc *pathCond) linked(a, b solver.Constraint) bool {
	if len(a.E.Terms) == 0 || len(b.E.Terms) == 0 {
		return len(a.E.Terms) == 0 && len(b.E.Terms) == 0
	}
	for _, ta := range a.E.Terms {
		sa := pc.vars.at(int(ta.Var)).slot
		for _, tb := range b.E.Terms {
			if ta.Var == tb.Var || (sa != 0 && sa == pc.vars.at(int(tb.Var)).slot) {
				return true
			}
		}
	}
	return false
}

// findRoot is union-find's find over root, halving paths as it goes.
func findRoot(root []int, x int) int {
	for root[x] != x {
		root[x] = root[root[x]]
		x = root[x]
	}
	return x
}
