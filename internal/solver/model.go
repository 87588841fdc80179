package solver

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Model is a satisfying assignment: a map from Var to int64 that never
// changes once built. A model derived from another (Edit, With) shares
// every part of it that the edit leaves alone, so deriving one costs time
// and memory in proportion to the bindings that change, not to the size
// of the model. The executor derives a state's model from an earlier one
// on every extension and full query, and shares models freely across
// forked states, goroutines and caches.
//
// The zero Model is the empty model. A nil *Model is no model at all, and
// stays distinct from the empty one: a satisfiable conjunction without
// variables has the empty model.
//
// A model is a 64-way radix trie over the Var's bits. Each level takes six
// bits. A leaf is one []int64: a 64-bit presence mask, then the values of
// the present keys in key order. An inner node lists its children the
// same way, indexed by popcount over its mask. The root is the lowest
// node that holds every key, and the bits above it (the prefix) are kept
// in the Model, so a model whose keys share one leaf is that leaf. Memory
// therefore grows with the bindings and not with the largest Var:
// VarTable hands out IDs sparsely (reserve blocks, lane strides). The
// layout is canonical, one shape per set of bindings, so
// reflect.DeepEqual compares models by their bindings.
type Model struct {
	root   mnode   // the root, when it is an inner node (shift > 0)
	leaf   []int64 // the root, when it is a leaf (shift 0)
	n      int
	prefix uint32 // the key bits above the root's level, common to every key
	shift  uint8  // the root's level: 0 (a leaf), 6, ..., 30
}

// mnode is an inner node. A node at level 6 has leaves; a higher one has
// kids. bits marks the children present, by index.
//
// edit is the model under construction that owns the node and writes it
// in place; own marks the leaves that model owns. Both are clear once the
// model is built. The root's edit also marks the Model's leaf as owned.
type mnode struct {
	bits   uint64
	own    uint64
	kids   []*mnode
	leaves [][]int64
	edit   *Model
}

// ModelOf returns a model holding the bindings of m.
func ModelOf(m map[Var]int64) *Model {
	var b ModelBuilder
	for v, x := range m {
		b.Set(v, x)
	}
	return b.Model()
}

// Len returns the number of bindings (0 for the nil model).
func (m *Model) Len() int {
	if m == nil {
		return 0
	}
	return m.n
}

// Get returns v's value and whether m binds v.
func (m *Model) Get(v Var) (int64, bool) {
	if m == nil || m.n == 0 {
		return 0, false
	}
	k := uint32(v)
	if uint64(k)>>(m.shift+6) != uint64(m.prefix) {
		return 0, false
	}
	l := m.leaf
	if m.shift != 0 {
		n := &m.root
		for s := m.shift; s != 6; s -= 6 {
			bit := uint64(1) << (k >> s & 63)
			if n.bits&bit == 0 {
				return 0, false
			}
			n = n.kids[bits.OnesCount64(n.bits&(bit-1))]
		}
		bit := uint64(1) << (k >> 6 & 63)
		if n.bits&bit == 0 {
			return 0, false
		}
		l = n.leaves[bits.OnesCount64(n.bits&(bit-1))]
	}
	lb, bit := uint64(l[0]), uint64(1)<<(k&63)
	if lb&bit == 0 {
		return 0, false
	}
	return l[1+bits.OnesCount64(lb&(bit-1))], true
}

// Value returns v's value; an unbound variable reads 0.
func (m *Model) Value(v Var) int64 {
	x, _ := m.Get(v)
	return x
}

// Range calls f on each binding in ascending Var order until f returns
// false. The trie key of a Var is its bit pattern, so the negative Vars,
// which no VarTable allocates but a decoder may read, have the largest
// keys: Range visits them first.
func (m *Model) Range(f func(Var, int64) bool) {
	if m == nil || m.n == 0 {
		return
	}
	if m.shift == 0 {
		walkLeaf(m.leaf, m.prefix<<6, f)
		return
	}
	base := uint32(uint64(m.prefix) << (m.shift + 6))
	if m.shift == 30 {
		// Root indexes 2 and 3 hold the keys with bit 31 set: the negative
		// Vars, which come first.
		split := bits.OnesCount64(m.root.bits & 3)
		neg := mnode{bits: m.root.bits &^ 3, kids: m.root.kids[split:]}
		pos := mnode{bits: m.root.bits & 3, kids: m.root.kids[:split]}
		_ = neg.walk(30, base, f) && pos.walk(30, base, f)
		return
	}
	m.root.walk(m.shift, base, f)
}

// walk calls f on the bindings under n, a node at level s whose keys
// start with prefix, in ascending key order; it reports whether f asked
// for more.
func (n *mnode) walk(s uint8, prefix uint32, f func(Var, int64) bool) bool {
	i := 0
	for b := n.bits; b != 0; b &= b - 1 {
		k := prefix | uint32(bits.TrailingZeros64(b))<<s
		if s == 6 {
			if !walkLeaf(n.leaves[i], k, f) {
				return false
			}
		} else if !n.kids[i].walk(s-6, k, f) {
			return false
		}
		i++
	}
	return true
}

// walkLeaf calls f on the bindings of leaf l, whose keys start with
// prefix, in ascending key order.
func walkLeaf(l []int64, prefix uint32, f func(Var, int64) bool) bool {
	i := 1
	for b := uint64(l[0]); b != 0; b &= b - 1 {
		if !f(Var(prefix|uint32(bits.TrailingZeros64(b))), l[i]) {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether m and o hold the same bindings. The nil model
// equals only itself.
func (m *Model) Equal(o *Model) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.n != o.n || m.shift != o.shift || m.prefix != o.prefix {
		return false
	}
	if m.shift == 0 {
		return slices.Equal(m.leaf, o.leaf)
	}
	return m.root.equal(&o.root, m.shift)
}

func (n *mnode) equal(o *mnode, s uint8) bool {
	if n.bits != o.bits {
		return false
	}
	for i, l := range n.leaves {
		if !slices.Equal(l, o.leaves[i]) {
			return false
		}
	}
	for i, k := range n.kids {
		if k != o.kids[i] && !k.equal(o.kids[i], s-6) {
			return false
		}
	}
	return true
}

// String renders the bindings as fmt renders a map[Var]int64.
func (m *Model) String() string {
	if m == nil {
		return "<nil>"
	}
	var sb strings.Builder
	sb.WriteString("map[")
	m.Range(func(v Var, x int64) bool {
		if sb.Len() > len("map[") {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatInt(int64(v), 10))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(x, 10))
		return true
	})
	sb.WriteByte(']')
	return sb.String()
}

// With returns m with v bound to val.
func (m *Model) With(v Var, val int64) *Model {
	b := m.Edit()
	b.Set(v, val)
	return b.Model()
}

// Edit returns a builder that starts from m's bindings (none when m is
// nil).
func (m *Model) Edit() ModelBuilder {
	nm := new(Model)
	if m != nil {
		*nm = *m // shares the root's children until the first write
	}
	return ModelBuilder{m: nm}
}

// ModelBuilder derives a model by edits. The first write to a node that
// the model it started from shares copies the node and the path to it,
// once; later writes change the copies in place. The zero ModelBuilder
// starts from the empty model.
type ModelBuilder struct {
	m *Model
}

// model returns the model under construction.
func (b *ModelBuilder) model() *Model {
	if b.m == nil {
		b.m = new(Model)
	}
	return b.m
}

// Set binds v to val. Setting a binding to the value it has copies
// nothing.
func (b *ModelBuilder) Set(v Var, val int64) {
	m := b.model()
	if x, ok := m.Get(v); ok && x == val {
		return
	}
	k := uint32(v)
	if m.n == 0 {
		m.leaf, m.prefix, m.shift, m.root = newLeaf(k, val), k>>6, 0, mnode{edit: m}
		m.n = 1
		return
	}
	for uint64(k)>>(m.shift+6) != uint64(m.prefix) {
		m.raise()
	}
	var added bool
	if m.shift == 0 {
		if m.root.edit != m {
			m.leaf, m.root.edit = grownClone(m.leaf), m
		}
		m.leaf, added = leafSet(m.leaf, k, val)
	} else {
		added = m.root.set(m, m.shift, k, val)
	}
	if added {
		m.n++
	}
}

// raise puts the root under a new root one level up.
func (m *Model) raise() {
	bit := uint64(1) << (m.prefix & 63)
	if m.shift == 0 {
		own := uint64(0)
		if m.root.edit == m {
			own = bit
		}
		m.root = mnode{bits: bit, own: own, leaves: [][]int64{m.leaf}, edit: m}
		m.leaf = nil
	} else {
		old := new(mnode)
		*old = m.root
		m.root = mnode{bits: bit, kids: []*mnode{old}, edit: m}
	}
	m.prefix >>= 6
	m.shift += 6
}

// set binds key k to val under n, a node at level s writable by m, and
// reports whether k is new.
func (n *mnode) set(m *Model, s uint8, k uint32, val int64) bool {
	n.ownBy(m)
	for ; s != 6; s -= 6 {
		bit := uint64(1) << (k >> s & 63)
		i := bits.OnesCount64(n.bits & (bit - 1))
		if n.bits&bit == 0 {
			n.kids = slices.Insert(n.kids, i, m.chain(k, s-6, val))
			n.bits |= bit
			return true
		}
		n = n.kid(m, i)
	}
	bit := uint64(1) << (k >> 6 & 63)
	i := bits.OnesCount64(n.bits & (bit - 1))
	if n.bits&bit == 0 {
		n.leaves = slices.Insert(n.leaves, i, newLeaf(k, val))
		n.bits |= bit
		n.own |= bit
		return true
	}
	l := n.leaves[i]
	if n.own&bit == 0 {
		l = grownClone(l)
		n.own |= bit
	}
	l, added := leafSet(l, k, val)
	n.leaves[i] = l
	return added
}

// Delete unbinds v.
func (b *ModelBuilder) Delete(v Var) {
	m := b.model()
	if _, ok := m.Get(v); !ok {
		return
	}
	if m.n--; m.n == 0 {
		*m = Model{}
		return
	}
	k := uint32(v)
	if m.shift == 0 {
		if m.root.edit != m {
			m.leaf, m.root.edit = grownClone(m.leaf), m
		}
		m.leaf = leafDelete(m.leaf, k)
		return
	}
	var path [5]*mnode // the inner nodes above level 6, from the root down
	var at [5]int      // the position of the next node in each
	d := 0
	n := &m.root
	n.ownBy(m)
	for s := m.shift; s != 6; s -= 6 {
		i := bits.OnesCount64(n.bits & (uint64(1)<<(k>>s&63) - 1))
		path[d], at[d] = n, i
		d++
		n = n.kid(m, i)
	}
	bit := uint64(1) << (k >> 6 & 63)
	i := bits.OnesCount64(n.bits & (bit - 1))
	if l := n.leaves[i]; uint64(l[0]) != uint64(1)<<(k&63) {
		if n.own&bit == 0 {
			l = grownClone(l)
			n.own |= bit
		}
		n.leaves[i] = leafDelete(l, k)
	} else {
		// k was the leaf's only key: drop the leaf, and every inner node
		// that empties.
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.bits &^= bit
		n.own &^= bit
		for s := uint8(12); n.bits == 0; s += 6 {
			d--
			n = path[d]
			n.kids = slices.Delete(n.kids, at[d], at[d]+1)
			n.bits &^= uint64(1) << (k >> s & 63)
		}
	}
	m.lower()
}

// lower moves the root down while it has a single child, so that it is
// the lowest node holding every key.
func (m *Model) lower() {
	for m.shift != 0 && m.root.bits&(m.root.bits-1) == 0 {
		idx := uint32(bits.TrailingZeros64(m.root.bits))
		if m.shift == 6 {
			m.leaf = m.root.leaves[0]
			owned := m.root.own != 0
			m.root = mnode{}
			if owned {
				m.root.edit = m
			}
		} else {
			m.root = *m.root.kids[0]
		}
		m.prefix = m.prefix<<6 | idx
		m.shift -= 6
	}
}

// Merge binds every variable o binds to o's value.
func (b *ModelBuilder) Merge(o *Model) {
	o.Range(func(v Var, x int64) bool {
		b.Set(v, x)
		return true
	})
}

// Model returns the model built, which never changes again, and resets
// the builder to the zero ModelBuilder.
func (b *ModelBuilder) Model() *Model {
	m := b.model()
	b.m = nil
	m.root.publish(m)
	return m
}

// ownBy makes n, a node of the model m under construction, writable: its
// child lists are copied unless m owns them already.
func (n *mnode) ownBy(m *Model) {
	if n.edit != m {
		n.kids, n.leaves, n.own, n.edit = grownClone(n.kids), grownClone(n.leaves), 0, m
	}
}

// kid returns n's i-th inner child made writable for m, copying it first
// unless m owns it; n must be writable.
func (n *mnode) kid(m *Model, i int) *mnode {
	c := n.kids[i]
	if c.edit != m {
		c = &mnode{bits: c.bits, kids: grownClone(c.kids), leaves: grownClone(c.leaves), edit: m}
		n.kids[i] = c
	}
	return c
}

// chain returns a new node at level s ≥ 6, owned by m, holding key k
// alone, bound to val.
func (m *Model) chain(k uint32, s uint8, val int64) *mnode {
	bit := uint64(1) << (k >> s & 63)
	if s == 6 {
		return &mnode{bits: bit, own: bit, leaves: [][]int64{newLeaf(k, val)}, edit: m}
	}
	return &mnode{bits: bit, kids: []*mnode{m.chain(k, s-6, val)}, edit: m}
}

// publish clears the ownership marks of the nodes of m, so that no later
// edit writes them. Only the nodes m owns can lead to nodes it owns.
func (n *mnode) publish(m *Model) {
	if n.edit != m {
		return
	}
	n.edit, n.own = nil, 0
	for _, k := range n.kids {
		k.publish(m)
	}
}

// newLeaf returns a leaf holding key k alone, bound to val, with room for
// two more keys.
func newLeaf(k uint32, val int64) []int64 {
	l := make([]int64, 2, 4)
	l[0], l[1] = int64(uint64(1)<<(k&63)), val
	return l
}

// leafSet binds key k to val in leaf l, which the caller may write, and
// returns the leaf and whether k is new.
func leafSet(l []int64, k uint32, val int64) ([]int64, bool) {
	lb, bit := uint64(l[0]), uint64(1)<<(k&63)
	i := 1 + bits.OnesCount64(lb&(bit-1))
	if lb&bit != 0 {
		l[i] = val
		return l, false
	}
	l = slices.Insert(l, i, val)
	l[0] = int64(lb | bit)
	return l, true
}

// leafDelete unbinds key k, which it binds, from leaf l, which the caller
// may write, and returns the leaf.
func leafDelete(l []int64, k uint32) []int64 {
	lb, bit := uint64(l[0]), uint64(1)<<(k&63)
	i := 1 + bits.OnesCount64(lb&(bit-1))
	l = slices.Delete(l, i, i+1)
	l[0] = int64(lb &^ bit)
	return l
}

// grownClone copies s with room for one more element; nil stays nil.
func grownClone[E any](s []E) []E {
	if s == nil {
		return nil
	}
	return append(make([]E, 0, len(s)+1), s...)
}
