package solver

import "testing"

// TestCachedSolverSpillFiresOncePerVerdict: the spill hook must see every
// freshly decided verdict exactly once, tagged with the solver's Origin,
// and must NOT fire again when the verdict is later served from the LRU.
func TestCachedSolverSpillFiresOncePerVerdict(t *testing.T) {
	cs := NewCached(New())
	cs.Origin = 42
	type spilled struct {
		d      Digest
		origin uint64
		res    Result
	}
	var got []spilled
	cs.Spill = func(d Digest, bsig, origin uint64, cons []Constraint, res Result, model *Model) {
		got = append(got, spilled{d, origin, res})
	}
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	sat := []Constraint{Ge(VarExpr(x), ConstExpr(3))}
	unsat := []Constraint{Ge(VarExpr(x), ConstExpr(3)), Le(VarExpr(x), ConstExpr(1))}

	if res, _ := cs.Check(tbl, sat); res != Sat {
		t.Fatalf("sat query = %v", res)
	}
	if res, _ := cs.Check(tbl, unsat); res != Unsat {
		t.Fatalf("unsat query = %v", res)
	}
	// Cache hits: no new spills.
	cs.Check(tbl, sat)
	cs.Check(tbl, unsat)

	if len(got) != 2 {
		t.Fatalf("spill fired %d times, want 2", len(got))
	}
	for _, s := range got {
		if s.origin != 42 {
			t.Fatalf("spilled origin = %d, want 42", s.origin)
		}
	}
	if got[0].d != DigestOf(sat) || got[0].res != Sat {
		t.Fatalf("first spill = %+v", got[0])
	}
	if got[1].d != DigestOf(unsat) || got[1].res != Unsat {
		t.Fatalf("second spill = %+v", got[1])
	}
}

// TestCachedSolverEvictionInvalidationSplit: capacity evictions and
// origin invalidations are separate counters — conflating them made the
// LRU look undersized whenever incremental invalidation dropped entries.
func TestCachedSolverEvictionInvalidationSplit(t *testing.T) {
	cs := NewCached(New())
	cs.MaxEntries = 4
	tbl := NewVarTable()
	vars := make([]Var, 8)
	for i := range vars {
		vars[i] = tbl.NewVar(string(rune('a' + i)))
	}
	// Fill past capacity: 8 distinct queries into 4 slots.
	for i, v := range vars {
		cs.Origin = uint64(100 + i%2)
		cs.Check(tbl, []Constraint{Ge(VarExpr(v), ConstExpr(int64(i)))})
	}
	if cs.Evictions != 4 {
		t.Fatalf("Evictions = %d, want 4", cs.Evictions)
	}
	if cs.Invalidations != 0 {
		t.Fatalf("Invalidations = %d before any invalidation", cs.Invalidations)
	}
	n := cs.InvalidateOrigins(map[uint64]bool{101: true})
	if n == 0 {
		t.Fatal("InvalidateOrigins dropped nothing")
	}
	if cs.Invalidations != n {
		t.Fatalf("Invalidations = %d, want %d", cs.Invalidations, n)
	}
	if cs.Evictions != 4 {
		t.Fatalf("Evictions moved to %d after invalidation", cs.Evictions)
	}
}

// TestSharedCacheSeedAndPersistHits: seeded entries serve lookups, count
// as PersistHits, and are not re-offered to the spill hook; fresh stores
// are offered exactly once.
func TestSharedCacheSeedAndPersistHits(t *testing.T) {
	sc := NewSharedCache(0)
	spills := 0
	sc.Spill = func(d Digest, bsig, origin uint64, cons []Constraint, res Result, model *Model) {
		spills++
	}
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	warm := []Constraint{Ge(VarExpr(x), ConstExpr(3))}
	fresh := []Constraint{Le(VarExpr(x), ConstExpr(-5))}
	wd, fd := DigestOf(warm), DigestOf(fresh)
	bsig := boundsSig(tbl, warm)

	sc.Seed(wd, bsig, 7, warm, Sat, ModelOf(map[Var]int64{x: 3}))
	if spills != 0 {
		t.Fatalf("Seed offered to spill hook (%d calls)", spills)
	}
	res, m, ok := sc.lookup(wd, bsig, warm)
	if !ok || res != Sat || m.Value(x) != 3 {
		t.Fatalf("seeded lookup = (%v, %v, %v)", res, m, ok)
	}
	if c := sc.Counters(); c.PersistHits != 1 || c.Hits != 1 {
		t.Fatalf("counters = %+v, want 1 hit / 1 persist-hit", c)
	}

	sc.store(fd, boundsSig(tbl, fresh), 8, fresh, Unsat, nil)
	if spills != 1 {
		t.Fatalf("store offered %d times, want 1", spills)
	}
	if _, _, ok := sc.lookup(fd, boundsSig(tbl, fresh), fresh); !ok {
		t.Fatal("stored entry missed")
	}
	if c := sc.Counters(); c.PersistHits != 1 {
		t.Fatalf("fresh hit counted as persist hit: %+v", sc.Counters())
	}
}

// TestSharedCacheInvalidateOrigins: only entries from dead origins drop,
// and the drop lands in Invalidations, not Evictions.
func TestSharedCacheInvalidateOrigins(t *testing.T) {
	sc := NewSharedCache(0)
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	cx := []Constraint{Ge(VarExpr(x), ConstExpr(1))}
	cy := []Constraint{Ge(VarExpr(y), ConstExpr(2))}
	sc.store(DigestOf(cx), boundsSig(tbl, cx), 100, cx, Sat, ModelOf(map[Var]int64{x: 1}))
	sc.store(DigestOf(cy), boundsSig(tbl, cy), 200, cy, Sat, ModelOf(map[Var]int64{y: 2}))

	if n := sc.InvalidateOrigins(map[uint64]bool{100: true}); n != 1 {
		t.Fatalf("InvalidateOrigins = %d, want 1", n)
	}
	if _, _, ok := sc.lookup(DigestOf(cx), boundsSig(tbl, cx), cx); ok {
		t.Fatal("dead-origin entry survived")
	}
	if _, _, ok := sc.lookup(DigestOf(cy), boundsSig(tbl, cy), cy); !ok {
		t.Fatal("live-origin entry dropped")
	}
	c := sc.Counters()
	if c.Invalidations != 1 || c.Evictions != 0 {
		t.Fatalf("counters = %+v, want 1 invalidation / 0 evictions", c)
	}
}
