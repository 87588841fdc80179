package corpus_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

// TestStoreFormatCompat pins the on-disk trace-store format against a store
// written by an earlier build: two `corpus ingest -app polymorph -runs 20
// -block-kb 4` runs (seeds 1 and 2) into one directory. The store must open,
// verify clean and iterate with the pinned counts, and rewriting its runs
// in the same order and geometry must reproduce every segment file and the
// manifest byte for byte.
func TestStoreFormatCompat(t *testing.T) {
	const dir = "testdata/polymorph.corpus"
	s, err := corpus.Open(dir)
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
	segs := s.Segments()
	if len(segs) != 2 || blocks != 21 {
		t.Fatalf("%d segments, %d blocks; want 2, 21", len(segs), blocks)
	}
	for i, want := range []struct{ runs, records int }{{40, 114}, {40, 121}} {
		if segs[i].Runs != want.runs || segs[i].Records != want.records {
			t.Errorf("segment %d holds %d runs, %d records; want %d, %d",
				i, segs[i].Runs, segs[i].Records, want.runs, want.records)
		}
	}
	c, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for i := range c.Runs {
		records += len(c.Runs[i].Records)
	}
	if c.Program != "polymorph" || len(c.Runs) != 80 || records != 235 {
		t.Fatalf("iterated %q: %d runs, %d records; want polymorph, 80, 235", c.Program, len(c.Runs), records)
	}

	out, err := corpus.Create(t.TempDir(), c.Program)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, info := range segs {
		w := out.NewWriter(corpus.Options{BlockBytes: 4 << 10})
		for i := next; i < next+info.Runs; i++ {
			if err := w.Append(&c.Runs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		next += info.Runs
	}
	names := []string{corpus.TraceKind.Manifest}
	for _, info := range segs {
		names = append(names, info.Name)
	}
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rewritten file differs from the checked-in one (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}
