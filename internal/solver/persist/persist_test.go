package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/solver"
)

// testEntry builds a distinct, self-consistent entry: x_i - i <= 0 with the
// satisfying model {x_i: i}. Origin cycles over a small set so tombstone and
// invalidation tests have something to drop.
func testEntry(i int) solver.CacheEntry {
	cons := []solver.Constraint{
		{E: solver.LinExpr{Terms: []solver.Term{{Coeff: 1, Var: solver.Var(i)}}, Const: -int64(i)}, Op: solver.OpLe},
		{E: solver.LinExpr{Terms: []solver.Term{{Coeff: 1, Var: solver.Var(i)}}, Const: int64(-i)}, Op: solver.OpEq},
	}
	return solver.CacheEntry{
		Digest: solver.DigestOf(cons),
		BSig:   uint64(1000 + i%7),
		Origin: uint64(100 + i%3),
		Cons:   cons,
		Res:    solver.Sat,
		Model:  solver.ModelOf(map[solver.Var]int64{solver.Var(i): int64(i)}),
	}
}

func writeEntries(t *testing.T, s *Store, n int) {
	t.Helper()
	w := s.NewWriter(Options{})
	for i := 0; i < n; i++ {
		if err := w.Append(testEntry(i)); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	writeEntries(t, s, n)
	if got := s.TotalEntries(); got != n {
		t.Fatalf("TotalEntries = %d, want %d", got, n)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Program() != "prog" {
		t.Fatalf("Program = %q", s2.Program())
	}
	seen := map[solver.Digest]solver.CacheEntry{}
	stats, err := s2.Load(nil, func(e solver.CacheEntry) { seen[e.Digest] = e })
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if stats.Loaded != n || stats.Rejected != 0 || stats.Invalidated != 0 {
		t.Fatalf("stats = %+v, want %d loaded", stats, n)
	}
	for i := 0; i < n; i++ {
		want := testEntry(i)
		got, ok := seen[want.Digest]
		if !ok {
			t.Fatalf("entry %d missing after load", i)
		}
		if got.BSig != want.BSig || got.Origin != want.Origin || got.Res != want.Res ||
			len(got.Cons) != len(want.Cons) || got.Model.Value(solver.Var(i)) != int64(i) {
			t.Fatalf("entry %d mismatch: got %+v want %+v", i, got, want)
		}
	}
}

func TestVerifyCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	// Small blocks force several blocks per segment, exercising the
	// digest-ordering and contiguous-offset checks across boundaries.
	w := s.NewWriter(Options{BlockBytes: 256})
	for i := 0; i < 300; i++ {
		if err := w.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify failed: %v", rep.AllProblems())
	}
	if len(rep.Segments) == 0 || rep.Segments[0].Blocks < 2 {
		t.Fatalf("expected multiple blocks, got %+v", rep.Segments)
	}
}

func segmentPath(t *testing.T, s *Store) string {
	t.Helper()
	segs := s.Segments()
	if len(segs) == 0 {
		t.Fatal("no sealed segments")
	}
	return filepath.Join(s.Dir(), segs[0].Name)
}

func TestCorruptBlockDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	writeEntries(t, s, 200)
	path := segmentPath(t, s)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0xFF // flip a bit mid-payload
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifySegmentFile(path)
	if err == nil && rep.OK() {
		t.Fatal("corrupted segment passed verification")
	}
	// Load must surface the damage as an error (the session treats it as a
	// cold start), never as silently served entries.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load(nil, func(solver.CacheEntry) {}); err == nil {
		t.Fatal("Load of corrupted segment succeeded")
	}
}

func TestTornSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	writeEntries(t, s, 200)
	path := segmentPath(t, s)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load(nil, func(solver.CacheEntry) {}); err == nil {
		t.Fatal("Load of torn segment succeeded")
	}
	rep, err := s2.Verify()
	if err == nil && rep.OK() {
		t.Fatal("torn segment passed verification")
	}

	// A crashed writer's temp file is flagged but harmless: sealing is
	// temp+fsync+rename, so a half-written temp never becomes a segment.
	if err := os.WriteFile(filepath.Join(dir, "cache-000009.scq.tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.AllProblems() {
		if p != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("stray temp file not flagged")
	}
}

func TestPoisonedEntriesRejectedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	w := s.NewWriter(Options{})
	good := testEntry(1)
	if err := w.Append(good); err != nil {
		t.Fatal(err)
	}
	// Poison 1: a Sat verdict whose model does not satisfy its conjunction.
	badModel := testEntry(2)
	badModel.Model = solver.ModelOf(map[solver.Var]int64{solver.Var(2): 99})
	if err := w.Append(badModel); err != nil {
		t.Fatal(err)
	}
	// Poison 2: a digest that does not match the stored conjunction.
	badDigest := testEntry(3)
	badDigest.Digest.Sum ^= 0xDEAD
	if err := w.Append(badDigest); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var loaded []solver.CacheEntry
	stats, err := s.Load(nil, func(e solver.CacheEntry) { loaded = append(loaded, e) })
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if stats.Loaded != 1 || stats.Rejected != 2 {
		t.Fatalf("stats = %+v, want 1 loaded / 2 rejected", stats)
	}
	if len(loaded) != 1 || loaded[0].Digest != good.Digest {
		t.Fatalf("loaded %+v, want only the good entry", loaded)
	}
}

func TestTombstonesAndOriginDrop(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	writeEntries(t, s, 90) // origins 100, 101, 102 — 30 entries each
	counts, err := s.OriginCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 || counts[100] != 30 {
		t.Fatalf("origin counts = %v", counts)
	}

	stats, err := s.Load(map[uint64]bool{101: true}, func(solver.CacheEntry) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 60 || stats.Invalidated != 30 {
		t.Fatalf("stats = %+v, want 60 loaded / 30 invalidated", stats)
	}

	// TombstoneHeaviest picks the max-count origin (ties: lowest hash) and
	// persists it in the manifest.
	origin, n, err := TombstoneHeaviest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if origin != 100 || n != 30 {
		t.Fatalf("TombstoneHeaviest = (%d, %d), want (100, 30)", origin, n)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ts := s2.Tombstones(); len(ts) != 1 || ts[0] != 100 {
		t.Fatalf("tombstones = %v", ts)
	}
	if err := s2.ClearTombstones(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ts := s3.Tombstones(); len(ts) != 0 {
		t.Fatalf("tombstones not cleared: %v", ts)
	}
}

func TestSinkConcurrentOffer(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	k := NewSink(s, Options{}, 0, nil)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := testEntry(w*per + i)
				k.Offer(e.Digest, e.BSig, e.Origin, e.Cons, e.Res, e.Model)
				// Duplicate offers must dedup, not double-write.
				k.Offer(e.Digest, e.BSig, e.Origin, e.Cons, e.Res, e.Model)
			}
		}(w)
	}
	wg.Wait()
	if err := k.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	total := k.Spilled() + k.Dropped()
	if total != workers*per {
		t.Fatalf("spilled %d + dropped %d = %d, want %d", k.Spilled(), k.Dropped(), total, workers*per)
	}
	if k.Deduped() < workers*per/2 {
		t.Fatalf("deduped = %d, want at least %d", k.Deduped(), workers*per/2)
	}
	stats, err := s.Load(nil, func(solver.CacheEntry) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != k.Spilled() {
		t.Fatalf("loaded %d, spilled %d", stats.Loaded, k.Spilled())
	}
	rep, err := s.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("verify after concurrent spill: err=%v problems=%v", err, rep.AllProblems())
	}
}

func TestSinkSkipsUnknownAndUnmarksOnDrop(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	k := NewSink(s, Options{}, 0, nil)
	e := testEntry(1)
	k.Offer(e.Digest, e.BSig, e.Origin, e.Cons, solver.Unknown, nil)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if k.Spilled() != 0 {
		t.Fatalf("Unknown verdict spilled")
	}
}

func TestDiffFns(t *testing.T) {
	old := []Fn{{"a", 1}, {"b", 2}, {"c", 3}}

	// No changes.
	d := DiffFns(old, old)
	if d.HasChanges() || d.Unchanged != 3 || len(d.Dead) != 0 {
		t.Fatalf("identical diff = %+v", d)
	}

	// b's body changed, c renamed to c2, d added, a removed.
	cur := []Fn{{"b", 20}, {"c2", 3}, {"d", 4}}
	d = DiffFns(old, cur)
	if got := fmt.Sprint(d.Dirty); got != "[b d]" {
		t.Fatalf("Dirty = %v", d.Dirty)
	}
	if got := fmt.Sprint(d.Removed); got != "[a]" {
		t.Fatalf("Removed = %v", d.Removed)
	}
	if d.Renamed != 1 || d.Unchanged != 0 {
		t.Fatalf("diff = %+v", d)
	}
	// Dead: hashes 1 (a, removed) and 2 (b, changed). Hash 3 survives via
	// the rename, so c's entries live on.
	if len(d.Dead) != 2 || !d.Dead[1] || !d.Dead[2] || d.Dead[3] {
		t.Fatalf("Dead = %v", d.Dead)
	}

	// Fresh store: nothing to invalidate.
	d = DiffFns(nil, cur)
	if d.HasChanges() || d.Unchanged != len(cur) {
		t.Fatalf("fresh diff = %+v", d)
	}
}

func TestCreateRejectsForeignProgram(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "prog-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, "prog-b"); err == nil {
		t.Fatal("Create accepted a store belonging to another program")
	}
	if !CacheKind.StoreIn(dir) {
		t.Fatal("StoreIn = false for a store")
	}
	if CacheKind.StoreIn(t.TempDir()) {
		t.Fatal("StoreIn = true for an empty dir")
	}
}

func TestWriterRollsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "prog")
	if err != nil {
		t.Fatal(err)
	}
	w := s.NewWriter(Options{BlockBytes: 128, SegmentBytes: 512})
	const n = 400
	for i := 0; i < n; i++ {
		if err := w.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.Segments()) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(s.Segments()))
	}
	if w.Sealed().Entries != n {
		t.Fatalf("Sealed().Entries = %d, want %d", w.Sealed().Entries, n)
	}
	stats, err := s.Load(nil, func(solver.CacheEntry) {})
	if err != nil || stats.Loaded != n {
		t.Fatalf("Load after roll: stats=%+v err=%v", stats, err)
	}
	rep, err := s.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("verify after roll: err=%v problems=%v", err, rep.AllProblems())
	}
}
