package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Store is an on-disk trace corpus: a directory with a manifest and sealed
// segment files. One Store handle may serve several concurrent Writers
// (each owns its own segment) and any number of readers; the mutex guards
// only the manifest and the segment-name sequence.
type Store struct {
	dir string

	// Obs, when set, receives corpus metrics (runs appended, blocks and
	// bytes written, segments sealed, scan throughput). Nil disables the
	// instrumentation; all updates are nil-safe.
	Obs *obs.Obs

	mu      sync.Mutex
	man     manifest
	nextSeq int
	segs    map[string]*segment // lazily opened, footer-validated segments
}

// Create initializes (or reopens) a store directory for the named program.
// An existing store is reopened and must belong to the same program.
func Create(dir, program string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		s, err := Open(dir)
		if err != nil {
			return nil, err
		}
		if s.Program() != program {
			return nil, fmt.Errorf("corpus: store %s belongs to %q, not %q", dir, s.Program(), program)
		}
		return s, nil
	}
	s := &Store{
		dir:  dir,
		man:  manifest{Version: manifestVersion, Program: program},
		segs: make(map[string]*segment),
	}
	if err := s.writeManifestLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads an existing store's manifest.
func Open(dir string) (*Store, error) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", dir, err)
	}
	s := &Store{dir: dir, segs: make(map[string]*segment)}
	if err := json.Unmarshal(blob, &s.man); err != nil {
		return nil, fmt.Errorf("corpus: %s: bad manifest: %w", dir, err)
	}
	if s.man.Version != manifestVersion {
		return nil, fmt.Errorf("corpus: %s: manifest version %d, want %d", dir, s.man.Version, manifestVersion)
	}
	for _, seg := range s.man.Segments {
		if seq := segmentSeq(seg.Name); seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Program returns the program the store's runs were collected from.
func (s *Store) Program() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Program
}

// Segments returns a snapshot of the sealed segments in seal order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SegmentInfo(nil), s.man.Segments...)
}

// TotalRuns returns the manifest's run count across all sealed segments.
func (s *Store) TotalRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, seg := range s.man.Segments {
		n += seg.Runs
	}
	return n
}

// TotalBytes returns the on-disk size of all sealed segments.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.man.Segments {
		n += seg.Bytes
	}
	return n
}

// Counts reports (#runs, #distinct locations, #distinct variables) — the
// n(R), n(L), n(V) preprocessing counts — from the manifest and segment
// footers alone, without decompressing a single block.
func (s *Store) Counts() (runs, locs, vars int, err error) {
	locSet := make(map[trace.Location]struct{})
	varSet := make(map[string]struct{})
	for _, info := range s.Segments() {
		seg, err := s.segment(info.Name)
		if err != nil {
			return 0, 0, 0, err
		}
		runs += seg.footer.Runs
		for _, l := range seg.locs {
			locSet[l] = struct{}{}
		}
		for _, v := range seg.footer.Vars {
			varSet[v] = struct{}{}
		}
	}
	return runs, len(locSet), len(varSet), nil
}

// segmentSeq parses the numeric sequence out of "seg-000042.seg" (-1 when
// the name is foreign).
func segmentSeq(name string) int {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"))
	if err != nil {
		return -1
	}
	return n
}

func (s *Store) allocSegmentName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := fmt.Sprintf("seg-%06d.seg", s.nextSeq)
	s.nextSeq++
	return name
}

// registerSegment appends a sealed segment to the manifest and persists it
// (temp file + rename, fsynced), making the segment visible to readers.
func (s *Store) registerSegment(info SegmentInfo) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.man.Segments = append(s.man.Segments, info)
	return s.writeManifestLocked()
}

// dropSegments removes the named segments from the manifest (compaction).
func (s *Store) dropSegments(names map[string]bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.man.Segments[:0]
	for _, seg := range s.man.Segments {
		if !names[seg.Name] {
			kept = append(kept, seg)
		}
	}
	s.man.Segments = kept
	for name := range names {
		delete(s.segs, name)
	}
	return s.writeManifestLocked()
}

func (s *Store) writeManifestLocked() error {
	// Keep manifest order stable but also deterministic after concurrent
	// seals started from the same store state: primary key is the segment
	// sequence number (foreign names sort after, by name).
	sort.SliceStable(s.man.Segments, func(i, j int) bool {
		si, sj := segmentSeq(s.man.Segments[i].Name), segmentSeq(s.man.Segments[j].Name)
		if si != sj {
			if si < 0 || sj < 0 {
				return sj < 0 && si >= 0
			}
			return si < sj
		}
		return s.man.Segments[i].Name < s.man.Segments[j].Name
	})
	blob, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(s.dir, manifestName, append(blob, '\n'))
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Options tunes a Writer's block and segment geometry. The zero value uses
// the package defaults.
type Options struct {
	// BlockBytes is the raw payload accumulated before a block is
	// compressed and flushed — the reader's peak per-block decode buffer.
	BlockBytes int
	// SegmentBytes is the compressed size at which the writer seals the
	// current segment and rolls to a new one.
	SegmentBytes int64
}

func (o Options) blockBytes() int {
	if o.BlockBytes <= 0 {
		return DefaultBlockBytes
	}
	return o.BlockBytes
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// Writer appends runs to a store. Each Writer owns the segment it is
// filling, so concurrent Writers on one Store never contend except at the
// manifest; a segment becomes visible only at seal time (footer written,
// file fsynced, temp name renamed into place), so a crash mid-append
// leaves at worst an invisible *.tmp file.
type Writer struct {
	s    *Store
	opts Options

	seg       *SegmentFile // nil between segments
	finalName string

	buf     []byte // raw payload pending in the current block
	dict    *dict
	blocks  []blockInfo
	runs    int // runs in the current segment
	records int // records in the current segment

	sealedRuns  int // runs across segments sealed by this writer
	sealedBytes int64
	sealed      []string // names of the segments this writer sealed
}

// NewWriter returns a Writer appending to the store.
func (s *Store) NewWriter(opts Options) *Writer {
	return &Writer{s: s, opts: opts}
}

// Append encodes one run into the writer's current segment, flushing a
// compressed block when the raw buffer reaches BlockBytes and sealing +
// rolling the segment when it reaches SegmentBytes.
func (w *Writer) Append(run *trace.Run) error {
	if w.seg == nil {
		if err := w.startSegment(); err != nil {
			return err
		}
	}
	w.buf = appendRun(w.buf, run, w.dict)
	w.runs++
	w.records += len(run.Records)
	if w.s.Obs != nil {
		w.s.Obs.Metrics.Counter(obs.MetricCorpusRunsAppended).Inc()
	}
	if len(w.buf) >= w.opts.blockBytes() {
		if err := w.flushBlock(); err != nil {
			return err
		}
		if w.seg.Written() >= w.opts.segmentBytes() {
			return w.seal()
		}
	}
	return nil
}

func (w *Writer) startSegment() error {
	w.finalName = w.s.allocSegmentName()
	seg, err := CreateSegmentFile(w.s.dir, w.finalName, segMagic)
	if err != nil {
		return err
	}
	w.seg = seg
	w.dict = newDict()
	w.blocks = nil
	w.runs, w.records = 0, 0
	w.buf = w.buf[:0]
	return nil
}

// flushBlock compresses the pending payload and writes one framed block
// through the shared segment layer.
func (w *Writer) flushBlock() error {
	if len(w.buf) == 0 {
		return nil
	}
	frame, err := w.seg.AppendBlock(w.buf)
	if err != nil {
		return err
	}
	w.blocks = append(w.blocks, blockInfo{
		Offset:   frame.Offset,
		CompLen:  frame.CompLen,
		RawLen:   frame.RawLen,
		FirstRun: w.blockFirstRun(),
		Runs:     w.runs - w.blockFirstRun(),
		CRC:      frame.CRC,
	})
	w.buf = w.buf[:0]
	if w.s.Obs != nil {
		w.s.Obs.Metrics.Counter(obs.MetricCorpusBlocksWritten).Inc()
	}
	return nil
}

// blockFirstRun returns the segment-relative index of the first run in the
// pending (unflushed) block.
func (w *Writer) blockFirstRun() int {
	if len(w.blocks) == 0 {
		return 0
	}
	last := w.blocks[len(w.blocks)-1]
	return last.FirstRun + last.Runs
}

// seal flushes the pending block, writes the footer and trailer, fsyncs,
// renames the temp file to its final segment name, and registers the
// segment in the manifest. After seal the writer is ready to start a new
// segment on the next Append.
func (w *Writer) seal() error {
	if w.seg == nil {
		return nil
	}
	if err := w.flushBlock(); err != nil {
		return w.abort(err)
	}
	if w.runs == 0 {
		// Nothing was appended: discard the empty segment silently.
		w.seg.Abort()
		w.seg = nil
		return nil
	}
	footer := segFooter{
		Program: w.s.Program(),
		Runs:    w.runs,
		Records: w.records,
		Vars:    w.dict.vars,
		Blocks:  w.blocks,
	}
	footer.Locs = make([]segLoc, len(w.dict.locs))
	for i, l := range w.dict.locs {
		footer.Locs[i] = segLoc{F: l.Func, K: int(l.Kind)}
	}
	blob, err := json.Marshal(&footer)
	if err != nil {
		return w.abort(err)
	}
	size, err := w.seg.Seal(blob, trailerMagic)
	if err != nil {
		w.seg = nil
		return err
	}
	info := SegmentInfo{Name: w.finalName, Runs: w.runs, Records: w.records, Bytes: size}
	w.sealedRuns += w.runs
	w.sealedBytes += size
	w.sealed = append(w.sealed, w.finalName)
	if w.s.Obs != nil {
		w.s.Obs.Metrics.Counter(obs.MetricCorpusSegmentsSealed).Inc()
		w.s.Obs.Metrics.Counter(obs.MetricCorpusBytesWritten).Add(size)
	}
	w.seg = nil
	return w.s.registerSegment(info)
}

func (w *Writer) abort(err error) error {
	if w.seg != nil {
		w.seg.Abort()
		w.seg = nil
	}
	return err
}

// Close seals the in-progress segment, if any. The writer may be reused
// afterwards (the next Append starts a fresh segment).
func (w *Writer) Close() error { return w.seal() }

// Abort discards every run this writer appended: the in-progress segment
// is deleted unsealed, and the segments it already sealed (rolled over at
// SegmentBytes, or by an earlier Close) are dropped from the manifest and
// removed from disk. A caller whose batch of runs must be all-or-nothing —
// a collection that fails part way — aborts instead of closing, so no
// partial batch ever becomes visible to readers.
func (w *Writer) Abort() error {
	w.abort(nil)
	if len(w.sealed) == 0 {
		return nil
	}
	names := make(map[string]bool, len(w.sealed))
	for _, name := range w.sealed {
		names[name] = true
	}
	w.sealed, w.sealedRuns, w.sealedBytes = nil, 0, 0
	if err := w.s.dropSegments(names); err != nil {
		return err
	}
	for name := range names {
		os.Remove(filepath.Join(w.s.dir, name))
	}
	return nil
}

// SealedRuns returns the number of runs this writer has made durable.
func (w *Writer) SealedRuns() int { return w.sealedRuns }

// SealedBytes returns the on-disk bytes of the segments this writer sealed.
func (w *Writer) SealedBytes() int64 { return w.sealedBytes }
