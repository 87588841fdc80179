package monitor

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/interp"
)

// alternating yields a benign input on even indices and an overflowing one
// on odd indices, so both quotas fill at the same pace.
func alternating(i int) *interp.Input {
	n := int64(i % 6)
	if i%2 == 1 {
		n = int64(10 + i%8)
	}
	return &interp.Input{Ints: map[string]int64{"n": n}}
}

// storeWriterOpts uses tiny blocks and seals a segment at every block
// flush, so a collection seals many segments before it finishes.
var storeWriterOpts = corpus.Options{BlockBytes: 128, SegmentBytes: 1}

// requireEmptyStore checks the store, and a fresh handle reopened from its
// manifest on disk, hold no runs and no segment files.
func requireEmptyStore(t *testing.T, store *corpus.Store) {
	t.Helper()
	if n := store.TotalRuns(); n != 0 {
		t.Errorf("store holds %d runs after a failed collection, want 0", n)
	}
	reopened, err := corpus.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if n := reopened.TotalRuns(); n != 0 {
		t.Errorf("reopened store holds %d runs after a failed collection, want 0", n)
	}
	for _, pattern := range []string{"*.seg", "*.tmp"} {
		left, _ := filepath.Glob(filepath.Join(store.Dir(), pattern))
		if len(left) != 0 {
			t.Errorf("failed collection left segment files behind: %v", left)
		}
	}
}

// TestStoreCollectionCancelledKeepsNothing: a collection cancelled part
// way through — after it has already sealed segments — must leave the
// store empty, so a later run never reuses a truncated corpus.
func TestStoreCollectionCancelledKeepsNothing(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	store, err := corpus.Create(t.TempDir(), "mon")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sealedBeforeCancel := 0
	gen := func(i int) *interp.Input {
		if i == 60 {
			sealedBeforeCancel = len(store.Segments())
			cancel()
		}
		return alternating(i)
	}
	err = BalancedCorpusStoreCtx(ctx, prog, gen, 100, 100, Config{SampleRate: 1.0}, store, storeWriterOpts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled collection returned %v, want context.Canceled", err)
	}
	if sealedBeforeCancel == 0 {
		t.Fatal("no segment was sealed before the cancel; the test does not exercise roll-back")
	}
	requireEmptyStore(t, store)
}

// TestStoreCollectionExhaustedKeepsNothing: a generator that cannot fill
// the faulty quota fails the collection, and the runs kept while trying
// must not stay behind in the store.
func TestStoreCollectionExhaustedKeepsNothing(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	store, err := corpus.Create(t.TempDir(), "mon")
	if err != nil {
		t.Fatal(err)
	}
	benign := func(i int) *interp.Input {
		return &interp.Input{Ints: map[string]int64{"n": int64(i % 6)}} // never faults
	}
	if err := BalancedCorpusStoreCtx(context.Background(), prog, benign, 20, 1, Config{SampleRate: 1.0}, store, storeWriterOpts); err == nil {
		t.Fatal("expected an error when faulty runs are impossible")
	}
	requireEmptyStore(t, store)
}

// TestStoreCollectionMatchesMemory: a successful store collection keeps
// the same runs, in the same order and with the same IDs, as the
// in-memory collection, and appends after runs already in the store.
func TestStoreCollectionMatchesMemory(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	cfg := Config{SampleRate: 0.5, Seed: 3}
	want, err := BalancedCorpusCtx(context.Background(), prog, alternating, 10, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := corpus.Create(t.TempDir(), "mon")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := BalancedCorpusStoreCtx(context.Background(), prog, alternating, 10, 10, cfg, store, storeWriterOpts); err != nil {
			t.Fatal(err)
		}
	}
	got, err := store.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2*len(want.Runs) {
		t.Fatalf("store holds %d runs, want %d", len(got.Runs), 2*len(want.Runs))
	}
	for i := range got.Runs {
		g, w := got.Runs[i], want.Runs[i%len(want.Runs)]
		if g.ID != i || g.Faulty != w.Faulty || len(g.Records) != len(w.Records) {
			t.Errorf("run %d: id=%d faulty=%v records=%d, want id=%d faulty=%v records=%d",
				i, g.ID, g.Faulty, len(g.Records), i, w.Faulty, len(w.Records))
		}
	}
}
