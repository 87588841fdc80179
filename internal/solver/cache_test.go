package solver

import (
	"sync"
	"testing"
	"time"
)

// TestCacheCollisionVerified: a digest hit whose stored conjunction differs
// from the query (an FNV-64 collision) must be treated as a miss, never
// returned as the stored verdict. Collisions are simulated by inserting
// directly into the LRU under a forged digest.
func TestCacheCollisionVerified(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	stored := []Constraint{Ge(VarExpr(x), ConstExpr(3))}
	other := []Constraint{Le(VarExpr(x), ConstExpr(-1))}
	d := DigestOf(stored)

	var lru lruCache
	lru.add(d, boundsSig(tbl, stored), 0, stored, Unsat, nil, 8)

	// Same digest, different conjunction: must miss (the stored Unsat
	// verdict would be wrong for `other`).
	if res, _, ok := lru.lookup(d, other); ok {
		t.Fatalf("colliding lookup served stored verdict %v", res)
	}
	// The genuine conjunction still hits.
	if _, _, ok := lru.lookup(d, stored); !ok {
		t.Fatal("exact conjunction missed its own entry")
	}
}

// TestDigestNoAffineSumCollision: regression for a structural collision in
// the additive digest. Raw FNV-64a propagates a low-bit Var difference as a
// prefix-independent additive constant, so conjunctions pairing the same
// constraint shapes over different variables (per-character string
// constraints, e.g. c_i >= 'A' && c_i <= 'F' for successive i) summed to
// equal digests roughly half the time — collapsing the cache hit rate from
// ~99% to ~2% on thttpd. mix64's avalanche finalizer breaks the affine
// structure; this pins the exact colliding pair found in that run.
func TestDigestNoAffineSumCollision(t *testing.T) {
	mk := func(op ConstraintOp, k int64, v Var) Constraint {
		return Constraint{Op: op, E: LinExpr{Const: k, Terms: []Term{{Coeff: 1, Var: v}}}}
	}
	overVar := func(v Var) []Constraint {
		return []Constraint{mk(OpNe, -32, v), mk(OpLe, -37, v)}
	}
	if DigestOf(overVar(1)) == DigestOf(overVar(3)) {
		t.Fatal("digests of same-shape conjunctions over different variables collide")
	}
	// Sweep many same-shape variable pairs: none may collide.
	seen := make(map[Digest]Var)
	for v := Var(0); v < 256; v++ {
		d := DigestOf(overVar(v))
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision between var %d and var %d", prev, v)
		}
		seen[d] = v
	}
}

// TestCacheBoundsSignature: on the cross-table path (lookupBsig, used by
// the SharedCache's shards), the same conjunction over a variable whose
// intrinsic VarTable bounds differ must not share an exact-match entry —
// parallel executors build their own tables, Var IDs recur across them,
// and the same structural query can flip verdicts with the bounds. (The
// per-executor LRU stays single-table, where no signature is needed.)
func TestCacheBoundsSignature(t *testing.T) {
	wide := NewVarTable()
	x1 := wide.NewVar("x") // unbounded
	narrow := NewVarTable()
	x2 := narrow.NewVarBounded("x", 0, 255) // same Var ID, byte-bounded
	if x1 != x2 {
		t.Fatalf("test premise broken: var IDs differ (%d vs %d)", x1, x2)
	}
	cons := []Constraint{Ge(VarExpr(x1), ConstExpr(300))}
	sigWide, sigNarrow := boundsSig(wide, cons), boundsSig(narrow, cons)
	if sigWide == sigNarrow {
		t.Fatal("bounds signatures agree across differently-bounded tables")
	}
	var lru lruCache
	d := DigestOf(cons)
	lru.add(d, sigWide, 0, cons, Sat, Model{x1: 300}, 8)
	// Under the byte-bounded table the same structural query is Unsat; a
	// bounds-blind cache would replay the Sat verdict.
	if e := lru.lookupBsig(d, sigNarrow, cons); e != nil {
		t.Fatalf("cross-table lookup served %v", e.res)
	}
	if e := lru.lookupBsig(d, sigWide, cons); e == nil {
		t.Fatal("same-table lookup missed")
	}
}

// TestCacheSupersetOfRefutedReachesSolver: the cache answers exact
// conjunctions only. A superset of a refuted conjunction is a different
// query, so it misses and reaches the physical solver instead of being
// refuted by subsumption, which could turn a budget-exhausted Unknown
// into Unsat and steer the executor differently.
func TestCacheSupersetOfRefutedReachesSolver(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	cs := NewCached(New())
	core := []Constraint{Ge(VarExpr(x), ConstExpr(10)), Le(VarExpr(x), ConstExpr(5))}
	if res, _ := cs.Check(tbl, core); res != Unsat {
		t.Fatalf("core: %v, want unsat", res)
	}
	physical := cs.S.Stats.Checks
	super := append(append([]Constraint(nil), core...), Ge(VarExpr(y), ConstExpr(0)))
	if res, _ := cs.Check(tbl, super); res != Unsat {
		t.Fatalf("superset: %v, want unsat", res)
	}
	if cs.S.Stats.Checks != physical+1 {
		t.Errorf("physical checks %d -> %d, want a real solve",
			physical, cs.S.Stats.Checks)
	}
}

// TestCacheLRUEviction: exceeding MaxEntries evicts the least recently
// used entry (and only that), counted in Evictions — no wholesale reset.
func TestCacheLRUEviction(t *testing.T) {
	tbl := NewVarTable()
	vars := make([]Var, 3)
	for i := range vars {
		vars[i] = tbl.NewVar("v")
	}
	cs := NewCached(New())
	cs.MaxEntries = 2
	q := func(i int) []Constraint {
		return []Constraint{Eq(VarExpr(vars[i]), ConstExpr(int64(i+1)))}
	}
	for i := 0; i < 3; i++ {
		if res, _ := cs.Check(tbl, q(i)); res != Sat {
			t.Fatalf("query %d: %v", i, res)
		}
	}
	if cs.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", cs.Evictions)
	}
	if got := cs.lru.len(); got != 2 {
		t.Errorf("lru holds %d entries, want 2", got)
	}
	// Queries 1 and 2 survived the eviction and hit the exact layer. (Check
	// them before re-touching query 0: re-inserting it would evict another.)
	hits := cs.Hits
	cs.Check(tbl, q(1))
	cs.Check(tbl, q(2))
	if cs.Hits != hits+2 {
		t.Errorf("surviving entries missed: hits %d -> %d", hits, cs.Hits)
	}
	// Query 0 was evicted: re-checking it is an exact-layer miss, so it
	// re-solves physically.
	misses := cs.Misses
	cs.Check(tbl, q(0))
	if cs.Misses != misses+1 {
		t.Errorf("evicted query hit the exact layer (misses %d -> %d)", misses, cs.Misses)
	}
}

// TestCacheDisabled: the ablation knob bypasses every layer — identical
// repeated queries each reach the physical solver — while the logical
// counters and wall clock keep working.
func TestCacheDisabled(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	cs := NewCached(New())
	cs.Disabled = true
	cons := []Constraint{Ge(VarExpr(x), ConstExpr(3))}
	cs.Check(tbl, cons)
	cs.Check(tbl, cons)
	if cs.Hits != 0 || cs.Misses != 0 {
		t.Errorf("disabled cache recorded hits=%d misses=%d", cs.Hits, cs.Misses)
	}
	if cs.S.Stats.Checks != 2 {
		t.Errorf("physical checks = %d, want 2", cs.S.Stats.Checks)
	}
	if cs.Queries.Checks != 2 || cs.Queries.Sat != 2 {
		t.Errorf("logical counters = %+v, want 2 checks / 2 sat", cs.Queries)
	}
	if cs.WallTime() <= 0 {
		t.Errorf("WallTime = %v, want > 0 after physical solves", cs.WallTime())
	}
}

// TestCacheLogicalCountersMatchVerdicts: Queries splits by outcome exactly
// once per query, whether served from cache layers or solved.
func TestCacheLogicalCountersMatchVerdicts(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	cs := NewCached(New())
	sat := []Constraint{Ge(VarExpr(x), ConstExpr(0))}
	unsat := []Constraint{Lt(VarExpr(x), VarExpr(x))}
	cs.Check(tbl, sat)
	cs.Check(tbl, sat) // exact hit: no logical query
	cs.Check(tbl, unsat)
	if cs.Queries.Checks != 2 || cs.Queries.Sat != 1 || cs.Queries.Unsat != 1 {
		t.Errorf("Queries = %+v, want checks=2 sat=1 unsat=1", cs.Queries)
	}
	if cs.Hits != 1 {
		t.Errorf("Hits = %d, want 1", cs.Hits)
	}
}

// TestWallTimeConcurrentReaders: progress snapshots read WallTime while
// the owning goroutine solves; under -race this proves the accumulator is
// genuinely atomic (satellite requirement).
func TestWallTimeConcurrentReaders(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	cs := NewCached(New())
	cs.Disabled = true // force a physical solve (and recordWall) per query
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = cs.WallTime()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		cs.Check(tbl, []Constraint{Ge(VarExpr(x), ConstExpr(int64(i)))})
	}
	close(done)
	wg.Wait()
	if cs.WallTime() <= 0 || cs.WallTime() > time.Minute {
		t.Errorf("implausible accumulated wall time %v", cs.WallTime())
	}
}
