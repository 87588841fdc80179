package corpus

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// smallOpts forces many blocks and many segments out of even a small
// corpus, so tests exercise block and segment boundaries.
var smallOpts = Options{BlockBytes: 1 << 10, SegmentBytes: 8 << 10}

// buildSyntheticCorpus builds a deterministic pseudo-random corpus shaped
// like real monitor output — repeated locations, a mix of int and string
// observations, correct and faulty runs — without importing the workload
// package (which itself depends on this one). App-corpus coverage lives in
// the external differential tests.
func buildSyntheticCorpus(t *testing.T, runs int) *trace.Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	funcs := []string{"parse", "route", "alloc", "copy", "emit"}
	vars := []string{"len", "idx", "buf", "mode", "tag"}
	c := &trace.Corpus{Program: "synthetic"}
	for id := 0; id < runs; id++ {
		run := trace.Run{ID: id, Faulty: id%2 == 1}
		if run.Faulty {
			run.FaultKind = "overflow"
			run.FaultFunc = funcs[rng.Intn(len(funcs))]
		}
		for r, nr := 0, 30+rng.Intn(50); r < nr; r++ {
			rec := trace.Record{Loc: trace.Location{
				Func: funcs[rng.Intn(len(funcs))],
				Kind: trace.EventEnter,
			}}
			if rng.Intn(3) == 0 {
				rec.Loc.Kind = trace.EventLeave
			}
			for o, no := 0, rng.Intn(5); o < no; o++ {
				obs := trace.Observation{
					Var:   vars[rng.Intn(len(vars))],
					Class: trace.VarClass(1 + rng.Intn(3)),
				}
				if rng.Intn(5) == 0 {
					obs.Kind = trace.ValueString
					obs.Str = fmt.Sprintf("s-%d", rng.Intn(8))
				} else {
					// Full-entropy values keep gzip from collapsing the
					// corpus below one segment's worth of blocks.
					obs.Kind = trace.ValueInt
					obs.Int = rng.Int63n(1<<40) - (1 << 39)
				}
				rec.Obs = append(rec.Obs, obs)
			}
			run.Records = append(run.Records, rec)
		}
		c.Runs = append(c.Runs, run)
	}
	return c
}

func ingest(t *testing.T, c *trace.Corpus, opts Options) *Store {
	t.Helper()
	s, err := Create(t.TempDir(), c.Program)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w := s.NewWriter(opts)
	for i := range c.Runs {
		if err := w.Append(&c.Runs[i]); err != nil {
			t.Fatalf("Append run %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s := ingest(t, c, smallOpts)
	if len(s.Segments()) < 2 {
		t.Fatalf("want multiple segments from smallOpts, got %d", len(s.Segments()))
	}

	// Reopen from disk: nothing should depend on in-process state.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := s2.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if got.Program != c.Program {
		t.Fatalf("program %q, want %q", got.Program, c.Program)
	}
	if !reflect.DeepEqual(got.Runs, c.Runs) {
		t.Fatalf("materialized runs differ from ingested corpus")
	}
	if n := s2.TotalRuns(); n != len(c.Runs) {
		t.Fatalf("TotalRuns = %d, want %d", n, len(c.Runs))
	}
	runs, locs, vars, err := s2.Counts()
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	wantLocs := len(c.LocationSet())
	if runs != len(c.Runs) || locs != wantLocs || vars == 0 {
		t.Fatalf("Counts = (%d, %d, %d), want (%d, %d, >0)", runs, locs, vars, len(c.Runs), wantLocs)
	}
}

func TestStoreRoundTripStringsAndEdgeCases(t *testing.T) {
	// Synthetic corpus hitting what app corpora may not: string values,
	// empty runs, empty observation lists, negative ints, zero-length
	// strings, non-faulty runs with no records.
	c := &trace.Corpus{Program: "synthetic", Runs: []trace.Run{
		{ID: 0, Faulty: false},
		{ID: 1, Faulty: true, FaultKind: "overflow", FaultFunc: "f", Records: []trace.Record{
			{Loc: trace.Location{Func: "f", Kind: trace.EventEnter}, Obs: []trace.Observation{
				{Var: "s", Class: trace.ClassParam, Kind: trace.ValueString, Str: "hello world"},
				{Var: "n", Class: trace.ClassGlobal, Kind: trace.ValueInt, Int: -12345678},
				{Var: "e", Class: trace.ClassReturn, Kind: trace.ValueString, Str: ""},
			}},
			{Loc: trace.Location{Func: "g", Kind: trace.EventLeave}},
		}},
		{ID: 2, Faulty: true, FaultKind: "", FaultFunc: "", Records: nil},
	}}
	s := ingest(t, c, Options{})
	got, err := s.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !reflect.DeepEqual(got.Runs, c.Runs) {
		t.Fatalf("round trip altered runs:\n got %+v\nwant %+v", got.Runs, c.Runs)
	}
}

func TestRandomAccess(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s := ingest(t, c, smallOpts)
	for _, i := range []int{0, 1, len(c.Runs) / 2, len(c.Runs) - 1} {
		run, err := s.RunAt(i)
		if err != nil {
			t.Fatalf("RunAt(%d): %v", i, err)
		}
		if !reflect.DeepEqual(*run, c.Runs[i]) {
			t.Fatalf("RunAt(%d) differs from corpus run", i)
		}
	}
	if _, err := s.RunAt(len(c.Runs)); err == nil {
		t.Fatalf("RunAt past end: want error")
	}
	if _, err := s.RunAt(-1); err == nil {
		t.Fatalf("RunAt(-1): want error")
	}
}

func TestConcurrentWriters(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s, err := Create(t.TempDir(), c.Program)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := s.NewWriter(smallOpts)
			for i := wi; i < len(c.Runs); i += writers {
				if err := w.Append(&c.Runs[i]); err != nil {
					errs[wi] = err
					return
				}
			}
			errs[wi] = w.Close()
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", wi, err)
		}
	}
	if n := s.TotalRuns(); n != len(c.Runs) {
		t.Fatalf("TotalRuns = %d, want %d", n, len(c.Runs))
	}
	// Every run must come back exactly once (order across writers is
	// seal-order, not append-order).
	got, err := s.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	seen := make(map[int]bool)
	for i := range got.Runs {
		if seen[got.Runs[i].ID] {
			t.Fatalf("run %d appears twice", got.Runs[i].ID)
		}
		seen[got.Runs[i].ID] = true
		if !reflect.DeepEqual(got.Runs[i], c.Runs[got.Runs[i].ID]) {
			t.Fatalf("run %d corrupted by concurrent ingest", got.Runs[i].ID)
		}
	}
	if rep, err := s.Verify(); err != nil || !rep.OK() {
		t.Fatalf("Verify after concurrent ingest: err=%v problems=%v", err, rep.AllProblems())
	}
}

func TestVerifyDetectsCorruptedBlock(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s := ingest(t, c, smallOpts)
	if rep, err := s.Verify(); err != nil || !rep.OK() {
		t.Fatalf("clean store must verify: err=%v problems=%v", err, rep.AllProblems())
	}

	// Flip one byte inside the first block's compressed payload of the
	// first segment. The footer stays valid, so only the payload CRC can
	// catch this.
	name := s.Segments()[0].Name
	path := filepath.Join(s.Dir(), name)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	off := seg.footer.Blocks[0].Offset + 8 // inside the payload area
	blob[off] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatalf("Open after corruption: %v", err)
	}
	rep, err := s2.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.OK() {
		t.Fatalf("Verify missed a corrupted block")
	}
	found := false
	for _, p := range rep.AllProblems() {
		if strings.Contains(p, name) {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption not attributed to %s: %v", name, rep.AllProblems())
	}
}

func TestTornWriteRecovery(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s := ingest(t, c, smallOpts)
	segs := s.Segments()
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}

	// Simulate a torn write: the last sealed segment loses its tail
	// mid-block (trailer and footer gone).
	last := segs[len(segs)-1]
	path := filepath.Join(s.Dir(), last.Name)
	if err := os.Truncate(path, last.Bytes/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatalf("Open with torn segment: %v", err)
	}

	// Earlier segments stay fully readable.
	intact := 0
	for _, info := range segs[:len(segs)-1] {
		intact += info.Runs
	}
	it := s2.Iter()
	defer it.Close()
	got := 0
	var iterErr error
	for {
		_, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			iterErr = err
			break
		}
		got++
	}
	if got != intact {
		t.Fatalf("read %d runs before torn segment, want %d", got, intact)
	}
	if iterErr == nil || !strings.Contains(iterErr.Error(), "torn") {
		t.Fatalf("iterator error = %v, want torn-segment error", iterErr)
	}

	// The torn segment itself opens with a clean, descriptive error.
	if _, err := openSegment(path); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("openSegment(torn) = %v, want torn-segment error", err)
	}

	// Verify flags it without failing the whole scan.
	rep, err := s2.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.OK() {
		t.Fatalf("Verify missed the torn segment")
	}
}

func TestWriterCrashLeavesNoVisibleSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	w := s.NewWriter(Options{})
	run := trace.Run{ID: 0, Records: []trace.Record{{Loc: trace.Location{Func: "f", Kind: trace.EventEnter}}}}
	if err := w.Append(&run); err != nil {
		t.Fatal(err)
	}
	// Abandon the writer without Close: the in-progress segment must be at
	// worst an invisible temp file, never a manifest entry or a *.seg.
	if n := s.TotalRuns(); n != 0 {
		t.Fatalf("unsealed runs visible in manifest: %d", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			t.Fatalf("unsealed segment visible as %s", e.Name())
		}
	}
}

func TestCompact(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s, err := Create(t.TempDir(), c.Program)
	if err != nil {
		t.Fatal(err)
	}
	// Seal one tiny segment per few runs: worst-case fragmentation.
	w := s.NewWriter(Options{})
	for i := range c.Runs {
		if err := w.Append(&c.Runs[i]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%5 == 0 {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := len(s.Segments())
	if before < 10 {
		t.Fatalf("want heavy fragmentation, got %d segments", before)
	}

	res, err := s.Compact(Options{})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.SegmentsBefore != before || res.SegmentsAfter >= before {
		t.Fatalf("compaction did not consolidate: %+v", res)
	}
	got, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Runs, c.Runs) {
		t.Fatalf("compaction changed run content or order")
	}
	// Old files are gone; store still verifies.
	if rep, err := s.Verify(); err != nil || !rep.OK() {
		t.Fatalf("Verify after compact: err=%v problems=%v", err, rep.AllProblems())
	}
	entries, _ := os.ReadDir(s.Dir())
	segFiles := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segFiles++
		}
	}
	if segFiles != res.SegmentsAfter {
		t.Fatalf("%d .seg files on disk, manifest has %d", segFiles, res.SegmentsAfter)
	}
}

// TestCompactFailureKeepsStore: a compaction that fails part way — here
// on a corrupted block in the last segment, after the rewrite has already
// sealed new segments — must leave the store exactly as it was, with no
// rewritten segment registered next to the originals.
func TestCompactFailureKeepsStore(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s := ingest(t, c, smallOpts)
	before := s.Segments()
	if len(before) < 2 {
		t.Fatalf("want several segments, got %d", len(before))
	}
	last := before[len(before)-1].Name
	path := filepath.Join(s.Dir(), last)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[seg.footer.Blocks[0].Offset+8] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}

	// Tiny output segments: the rewrite seals several before it reaches
	// the corrupted block.
	if _, err := s.Compact(Options{BlockBytes: 256, SegmentBytes: 1}); err == nil {
		t.Fatal("compaction over a corrupted block must fail")
	}
	if got := s.Segments(); !reflect.DeepEqual(got, before) {
		t.Errorf("failed compaction changed the manifest:\n got  %v\n want %v", got, before)
	}
	reopened, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Segments(); !reflect.DeepEqual(got, before) {
		t.Errorf("failed compaction changed the manifest on disk:\n got  %v\n want %v", got, before)
	}
	files, _ := filepath.Glob(filepath.Join(s.Dir(), "*.seg"))
	if len(files) != len(before) {
		t.Errorf("%d .seg files on disk after a failed compaction, want %d", len(files), len(before))
	}
}

func TestCreateReopenAndMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "polymorph")
	if err != nil {
		t.Fatal(err)
	}
	w := s.NewWriter(Options{})
	run := trace.Run{ID: 0, Records: []trace.Record{{Loc: trace.Location{Func: "f", Kind: trace.EventEnter}}}}
	if err := w.Append(&run); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Create(dir, "polymorph")
	if err != nil {
		t.Fatalf("reopen via Create: %v", err)
	}
	if s2.TotalRuns() != 1 {
		t.Fatalf("reopened store lost runs")
	}
	if _, err := Create(dir, "ctree"); err == nil {
		t.Fatalf("Create with mismatched program: want error")
	}
}

func TestIteratorBoundedMemory(t *testing.T) {
	c := buildSyntheticCorpus(t, 60)
	s := ingest(t, c, smallOpts)
	it := s.Iter()
	defer it.Close()
	for {
		if _, err := it.Next(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
	}
	// A block is flushed as soon as the raw buffer crosses BlockBytes, so
	// one run's encoding is the only possible overshoot.
	maxRun := 0
	for i := range c.Runs {
		if n := len(appendRun(nil, &c.Runs[i], newDict())); n > maxRun {
			maxRun = n
		}
	}
	if max := it.MaxBlockBytes(); max > smallOpts.BlockBytes+maxRun {
		t.Fatalf("peak block buffer %d exceeds BlockBytes %d + largest run %d", max, smallOpts.BlockBytes, maxRun)
	}
	if it.ScannedBytes() <= 0 || it.ScannedBytes() > s.TotalBytes() {
		t.Fatalf("ScannedBytes = %d, store holds %d", it.ScannedBytes(), s.TotalBytes())
	}
}

func TestManifestOrderAfterReopen(t *testing.T) {
	// Segment names must sort by sequence even past 6 digits' worth of
	// lexicographic traps; spot-check the parser.
	for _, tc := range []struct {
		name string
		want int
	}{{"seg-000000.seg", 0}, {"seg-000042.seg", 42}, {"seg-123456.seg", 123456}, {"other.seg", -1}, {"seg-xyz.seg", -1}} {
		if got := TraceKind.segmentSeq(tc.name); got != tc.want {
			t.Errorf("segmentSeq(%q) = %d, want %d", tc.name, got, tc.want)
		}
	}
}
