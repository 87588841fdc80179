package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/solver"
)

// fixtureEntry is the deterministic entry list testdata/fixture.cache was
// written from: three of every four entries are Sat with a two-variable
// model, every fourth is Unsat; origins cycle over 100..102.
func fixtureEntry(i int) solver.CacheEntry {
	a, b := solver.Var(i%11), solver.Var(11+i%5)
	bsig, origin := uint64(1000+i%7), uint64(100+i%3)
	if i%4 == 3 {
		k := int64(i)
		cons := []solver.Constraint{
			{E: solver.LinExpr{Terms: []solver.Term{{Coeff: 1, Var: a}}, Const: -k}, Op: solver.OpLe},
			{E: solver.LinExpr{Terms: []solver.Term{{Coeff: -1, Var: a}}, Const: k + 1}, Op: solver.OpLe},
		}
		return solver.CacheEntry{Digest: solver.DigestOf(cons), BSig: bsig, Origin: origin, Cons: cons, Res: solver.Unsat}
	}
	cons := []solver.Constraint{
		{E: solver.LinExpr{Terms: []solver.Term{{Coeff: 1, Var: a}, {Coeff: -1, Var: b}}, Const: int64(i%13) - 20}, Op: solver.OpLe},
		{E: solver.LinExpr{Terms: []solver.Term{{Coeff: 1, Var: a}}, Const: -int64(i % 17)}, Op: solver.OpEq},
		{E: solver.LinExpr{Terms: []solver.Term{{Coeff: 1, Var: b}}, Const: -3}, Op: solver.OpNe},
	}
	return solver.CacheEntry{Digest: solver.DigestOf(cons), BSig: bsig, Origin: origin, Cons: cons, Res: solver.Sat,
		Model: solver.ModelOf(map[solver.Var]int64{a: int64(i % 17), b: 30})}
}

const fixtureEntries = 120

// fixtureOpts is the geometry testdata/fixture.cache was written with.
var fixtureOpts = Options{BlockBytes: 512, SegmentBytes: 2048}

// TestCacheFormatCompat pins the on-disk solver-cache format against a store
// written by an earlier build: fixtureEntry(0..119) through one Writer with
// fixtureOpts, then SetFns over three functions and one tombstone for
// origin 101. The store must open, verify clean and load with the pinned
// counts and drops, and rewriting the same entries in the same order and
// geometry must reproduce every segment file byte for byte.
func TestCacheFormatCompat(t *testing.T) {
	const dir = "testdata/fixture.cache"
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("verify: err=%v problems=%v", err, rep.AllProblems())
	}
	blocks := 0
	for _, seg := range rep.Segments {
		blocks += seg.Blocks
	}
	if len(rep.Segments) != 3 || blocks != 30 || s.TotalEntries() != fixtureEntries {
		t.Fatalf("%d segments, %d blocks, %d entries; want 3, 30, %d", len(rep.Segments), blocks, s.TotalEntries(), fixtureEntries)
	}
	if got, want := s.Fns(), []Fn{{"main", 100}, {"parse", 101}, {"route", 102}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Fns = %v, want %v", got, want)
	}
	ts := s.Tombstones()
	if !reflect.DeepEqual(ts, []uint64{101}) {
		t.Fatalf("Tombstones = %v, want [101]", ts)
	}

	stats, err := s.Load(map[uint64]bool{ts[0]: true}, func(solver.CacheEntry) {})
	if err != nil || stats.Loaded != 80 || stats.Invalidated != 40 || stats.Rejected != 0 {
		t.Fatalf("Load with the tombstone: stats=%+v err=%v; want 80 loaded, 40 invalidated", stats, err)
	}
	loaded := map[solver.Digest]solver.CacheEntry{}
	if _, err := s.Load(nil, func(e solver.CacheEntry) { loaded[e.Digest] = e }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fixtureEntries; i++ {
		want := fixtureEntry(i)
		if got := loaded[want.Digest]; !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d loaded as %+v, want %+v", i, got, want)
		}
	}

	out, err := Create(t.TempDir(), s.Program())
	if err != nil {
		t.Fatal(err)
	}
	w := out.NewWriter(fixtureOpts)
	for i := 0; i < fixtureEntries; i++ {
		if err := w.Append(fixtureEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := out.Segments(), s.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rewritten manifest segments %v, want %v", got, want)
	}
	for _, info := range s.Segments() {
		want, err := os.ReadFile(filepath.Join(dir, info.Name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out.Dir(), info.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rewritten segment differs from the checked-in one (%d vs %d bytes)", info.Name, len(got), len(want))
		}
	}
}
