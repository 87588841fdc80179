package solver

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// VarInfo carries a variable's metadata.
type VarInfo struct {
	Name string
	// Intrinsic bounds; Lo/Hi are ignored when the corresponding flag is
	// false.
	HasLo, HasHi bool
	Lo, Hi       int64
}

// VarTable allocates variables. It is append-only so symbolic-execution
// states can share one table while keeping independent constraint sets.
//
// The table is safe for concurrent use: allocation takes a mutex, while
// Info — the solver's hot path — reads the backing store through an atomic
// pointer without locking. A reader may only ask about variables it has a
// happens-before edge to (its own allocations, or variables published to it
// through a lock, channel, or barrier), which the parallel frontier
// executor guarantees by publishing states only at epoch boundaries.
//
// Besides plain dense allocation, the table supports interleaved "lanes"
// (see NewLaneGroup): concurrent workers draw IDs from disjoint arithmetic
// progressions so the variable numbering — which the solver is sensitive
// to through term ordering and branching heuristics — depends only on
// which worker allocates, never on cross-worker timing.
//
// Metadata lives in fixed-size pages allocated on first write, and Reserve
// claims ID ranges without touching storage at all. The ID space can
// therefore be arbitrarily sparse at negligible cost — lane striding and
// per-string byte blocks reserve far more IDs than are ever materialized,
// and a flat array sized by the highest touched ID would spend most of its
// memory (and its zeroing time) on gaps.
type VarTable struct {
	mu    sync.Mutex
	hi    int // 1 + highest assigned ID (size of the ID space)
	pages atomic.Pointer[[]*varPage]
	// ranges holds the dense table's Reserve blocks; lane blocks live in
	// their LaneGroup (one sorted list per lane), reachable via groups.
	ranges atomic.Pointer[[]byteRange]
	groups atomic.Pointer[[]*LaneGroup]
}

const (
	varPageShift = 9 // 512 entries per page
	varPageSize  = 1 << varPageShift
	varPageMask  = varPageSize - 1
)

type varPage [varPageSize]VarInfo

// NewVarTable returns an empty table.
func NewVarTable() *VarTable {
	t := &VarTable{}
	t.pages.Store(&[]*varPage{})
	t.ranges.Store(&[]byteRange{})
	t.groups.Store(&[]*LaneGroup{})
	return t
}

// NewVar allocates an unbounded variable.
func (t *VarTable) NewVar(name string) Var {
	return t.alloc(VarInfo{Name: name})
}

// NewVarBounded allocates a variable with intrinsic bounds [lo, hi].
func (t *VarTable) NewVarBounded(name string, lo, hi int64) Var {
	return t.alloc(VarInfo{Name: name, HasLo: true, Lo: lo, HasHi: true, Hi: hi})
}

// NewVarMin allocates a variable with only a lower bound (e.g. a string
// length, which is ≥ 0).
func (t *VarTable) NewVarMin(name string, lo int64) Var {
	return t.alloc(VarInfo{Name: name, HasLo: true, Lo: lo})
}

func (t *VarTable) alloc(info VarInfo) Var {
	t.mu.Lock()
	id := t.hi
	t.setLocked(id, info)
	t.mu.Unlock()
	return Var(id)
}

// byteRange records one Reserve call: count IDs starting at first, spaced
// stride apart, all sharing the template metadata. The template's Name is a
// label prefix — Name() renders entry i as "label[i]". Storing one record
// per block (instead of one table entry per ID) is what makes reserving a
// large, mostly-untouched block O(1) in both time and space.
type byteRange struct {
	first  Var
	stride int32
	count  int32
	// single marks a one-ID record for an ordinary named variable (lane
	// allocations store these instead of page entries); its info is exact
	// rather than an indexed template.
	single bool
	info   VarInfo
}

// rangeFor returns the range containing v, if any. Ranges in the list are
// sorted by first ID and pairwise disjoint (each comes from one monotone
// allocation counter), so a binary search for the last range starting at or
// before v decides membership.
func rangeFor(ranges []byteRange, v Var) (byteRange, bool) {
	lo, hi := 0, len(ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if ranges[mid].first <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return byteRange{}, false
	}
	r := ranges[lo-1]
	d := int32(v - r.first)
	if d%r.stride != 0 || d/r.stride >= r.count {
		return byteRange{}, false
	}
	return r, true
}

// appendRange publishes ranges+r through p. Every published view is
// immutable — the new entry is written into spare capacity one past any
// reader's length, then a longer view is published — so the array is
// copied only on geometric capacity growth, keeping appends amortized O(1)
// while lock-free readers binary-search whatever view they loaded. Caller
// holds t.mu.
func appendRange(p *atomic.Pointer[[]byteRange], r byteRange) {
	old := *p.Load()
	if len(old) == cap(old) {
		grown := cap(old) * 2
		if grown < 16 {
			grown = 16
		}
		nd := make([]byteRange, len(old), grown)
		copy(nd, old)
		old = nd
	}
	nr := old[: len(old)+1 : cap(old)]
	nr[len(old)] = r
	p.Store(&nr)
}

// Reserve claims count consecutive IDs that all carry info's bounds, with
// entry i named "<info.Name>[i]". No per-ID storage is touched; the block
// is recorded as a single range. It returns the first ID and the distance
// between consecutive ones (always 1 for the dense table; lanes reserve
// strided blocks).
func (t *VarTable) Reserve(count int, info VarInfo) (Var, int32) {
	if count <= 0 {
		return NoVar, 1
	}
	t.mu.Lock()
	first := Var(t.hi)
	t.hi += count
	appendRange(&t.ranges, byteRange{first: first, stride: 1, count: int32(count), info: info})
	t.mu.Unlock()
	return first, 1
}

// setLocked assigns info to id, advancing the high-water mark and
// allocating the containing page as needed. Caller holds t.mu.
func (t *VarTable) setLocked(id int, info VarInfo) {
	if id >= t.hi {
		t.hi = id + 1
	}
	p := t.pageLocked(id >> varPageShift)
	p[id&varPageMask] = info
}

// pageLocked returns page pi, allocating it if absent. Caller holds t.mu.
// The page index is replaced copy-on-write (never mutated in place) so
// lock-free readers always see a consistent slice; pages themselves are
// stable once published. Entry writes into a page are ordered against
// readers by the caller-side happens-before contract documented on VarTable.
func (t *VarTable) pageLocked(pi int) *varPage {
	ps := *t.pages.Load()
	if pi < len(ps) {
		if p := ps[pi]; p != nil {
			return p
		}
	}
	n := len(ps)
	if pi >= n {
		n = pi + 1
	}
	np := make([]*varPage, n)
	copy(np, ps)
	p := new(varPage)
	np[pi] = p
	t.pages.Store(&np)
	return p
}

// Len returns the size of the ID space (1 + the highest allocated ID; gaps
// from strided lane allocation count).
func (t *VarTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hi
}

// Export returns the metadata of every ID in [0, Len()) — the snapshot
// codec's view of a densely allocated table. Only tables without lane
// groups can be exported faithfully this way (a strided table's block
// structure is not captured); callers gate on Dense.
func (t *VarTable) Export() []VarInfo {
	n := t.Len()
	infos := make([]VarInfo, n)
	for i := range infos {
		infos[i] = t.Info(Var(i))
	}
	return infos
}

// Dense reports whether the table has only plain dense allocations — no
// lane groups and no Reserve blocks — so Export/Restore round-trips it
// exactly. A one-state-per-epoch executor only ever allocates densely.
func (t *VarTable) Dense() bool {
	return len(*t.groups.Load()) == 0 && len(*t.ranges.Load()) == 0
}

// Restore replays an exported metadata slice into an empty table,
// reassigning the same IDs in order. It is the deserialization half of
// Export and fails on a table that has already allocated.
func (t *VarTable) Restore(infos []VarInfo) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hi != 0 {
		return fmt.Errorf("solver: restore into a non-empty table (%d IDs)", t.hi)
	}
	for i, info := range infos {
		t.setLocked(i, info)
	}
	return nil
}

// lookupRange finds the Reserve block containing v: the dense table's list
// first, then the owning lane's list (v's residue modulo the group stride
// identifies the lane, so only one sorted per-lane list is searched).
func (t *VarTable) lookupRange(v Var) (byteRange, bool) {
	if r, ok := rangeFor(*t.ranges.Load(), v); ok {
		return r, true
	}
	gs := *t.groups.Load()
	for i := len(gs) - 1; i >= 0; i-- {
		g := gs[i]
		if int(v) < g.base {
			continue
		}
		lane := (int(v) - g.base) % g.stride
		if r, ok := rangeFor(*g.laneRanges[lane].Load(), v); ok {
			return r, true
		}
	}
	return byteRange{}, false
}

// Info returns the variable's metadata. IDs inside a Reserve block report
// the block's template (shared bounds; Name is the unindexed label); IDs
// never allocated report a zero VarInfo.
func (t *VarTable) Info(v Var) VarInfo {
	ps := *t.pages.Load()
	pi := int(v) >> varPageShift
	if v >= 0 && pi < len(ps) && ps[pi] != nil {
		if info := ps[pi][int(v)&varPageMask]; info.Name != "" {
			return info
		}
	}
	if r, ok := t.lookupRange(v); ok {
		return r.info
	}
	return VarInfo{}
}

// Name returns the variable's name; block entries render as "label[i]".
func (t *VarTable) Name(v Var) string {
	ps := *t.pages.Load()
	pi := int(v) >> varPageShift
	if v >= 0 && pi < len(ps) && ps[pi] != nil {
		if name := ps[pi][int(v)&varPageMask].Name; name != "" {
			return name
		}
	}
	if r, ok := t.lookupRange(v); ok {
		if r.single {
			return r.info.Name
		}
		return fmt.Sprintf("%s[%d]", r.info.Name, int32(v-r.first)/r.stride)
	}
	return fmt.Sprintf("v%d?", int(v))
}

// VarAllocator abstracts variable allocation so code can run against the
// dense table (one-slot execution) or a lane (one slot of a wider epoch)
// without caring which.
type VarAllocator interface {
	NewVar(name string) Var
	NewVarBounded(name string, lo, hi int64) Var
	NewVarMin(name string, lo int64) Var
	// Reserve claims count IDs spaced stride apart starting at the returned
	// first ID. Every ID carries info's bounds; entry i is named
	// "<info.Name>[i]". The block costs O(1) regardless of count.
	Reserve(count int, info VarInfo) (first Var, stride int32)
}

var (
	_ VarAllocator = (*VarTable)(nil)
	_ VarAllocator = (*Lane)(nil)
)

// LaneGroup partitions the ID space above its creation point into stride
// interleaved lanes: lane i allocates base+i, base+i+stride,
// base+i+2*stride, … Two lanes can allocate concurrently without ever
// colliding, and the IDs a lane hands out depend only on how many
// allocations that lane has made — not on what other lanes do — which keeps
// variable numbering deterministic under parallel execution.
//
// Once a group exists, all further allocation on the table must go through
// its lanes (a dense NewVar would land inside another lane's progression).
type LaneGroup struct {
	t      *VarTable
	base   int
	stride int
	// laneRanges[i] is lane i's sorted Reserve-block list, published
	// copy-on-write so the table's lock-free Info/Name lookups can search
	// it while the owning lane appends.
	laneRanges []atomic.Pointer[[]byteRange]
}

// NewLaneGroup creates a lane group with the given stride at the current
// high-water mark and registers it for block-metadata lookups.
func (t *VarTable) NewLaneGroup(stride int) *LaneGroup {
	g := &LaneGroup{t: t, stride: stride, laneRanges: make([]atomic.Pointer[[]byteRange], stride)}
	for i := range g.laneRanges {
		g.laneRanges[i].Store(&[]byteRange{})
	}
	t.mu.Lock()
	g.base = t.hi
	gs := *t.groups.Load()
	ngs := make([]*LaneGroup, len(gs)+1)
	copy(ngs, gs)
	ngs[len(gs)] = g
	t.groups.Store(&ngs)
	t.mu.Unlock()
	return g
}

// Lane returns lane i of the group (0 ≤ i < stride). Each lane must be used
// by at most one goroutine at a time; handing a lane to another goroutine
// requires a happens-before edge (the frontier executor's epoch barrier).
func (g *LaneGroup) Lane(i int) *Lane {
	if i < 0 || i >= g.stride {
		panic(fmt.Sprintf("solver: lane %d out of range [0,%d)", i, g.stride))
	}
	return &Lane{g: g, idx: i}
}

// Lane allocates variables from one arithmetic progression of a LaneGroup.
type Lane struct {
	g   *LaneGroup
	idx int
	n   int // slots handed out so far
}

// NewVar allocates an unbounded variable from the lane.
func (l *Lane) NewVar(name string) Var {
	return l.alloc(VarInfo{Name: name})
}

// NewVarBounded allocates a bounded variable from the lane.
func (l *Lane) NewVarBounded(name string, lo, hi int64) Var {
	return l.alloc(VarInfo{Name: name, HasLo: true, Lo: lo, HasHi: true, Hi: hi})
}

// NewVarMin allocates a lower-bounded variable from the lane.
func (l *Lane) NewVarMin(name string, lo int64) Var {
	return l.alloc(VarInfo{Name: name, HasLo: true, Lo: lo})
}

// alloc records the variable as a single-ID range in the lane's list
// rather than a page entry: lane IDs are sparse in the table's ID space
// (consecutive lane slots sit a stride apart, and block reservations leave
// large gaps), so per-ID pages would be mostly empty.
func (l *Lane) alloc(info VarInfo) Var {
	id := l.next()
	t := l.g.t
	t.mu.Lock()
	if int(id) >= t.hi {
		t.hi = int(id) + 1
	}
	appendRange(&l.g.laneRanges[l.idx],
		byteRange{first: id, stride: int32(l.g.stride), count: 1, single: true, info: info})
	t.mu.Unlock()
	return id
}

// Reserve claims count lane slots (IDs spaced one group stride apart) and
// returns the first ID and that stride. Like VarTable.Reserve it records a
// single range carrying info's template — no per-ID storage.
func (l *Lane) Reserve(count int, info VarInfo) (Var, int32) {
	if count <= 0 {
		return NoVar, int32(l.g.stride)
	}
	first := Var(l.g.base + l.idx + l.g.stride*l.n)
	l.n += count
	last := int(first) + (count-1)*l.g.stride
	t := l.g.t
	t.mu.Lock()
	if last >= t.hi {
		t.hi = last + 1
	}
	appendRange(&l.g.laneRanges[l.idx],
		byteRange{first: first, stride: int32(l.g.stride), count: int32(count), info: info})
	t.mu.Unlock()
	return first, int32(l.g.stride)
}

func (l *Lane) next() Var {
	id := l.g.base + l.idx + l.g.stride*l.n
	l.n++
	return Var(id)
}
