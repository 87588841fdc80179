package corpus

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/trace"
)

// segment is an opened, footer-validated segment: the index is in memory,
// the blocks stay on disk until asked for.
type segment struct {
	path   string
	size   int64
	footer segFooter
	locs   []trace.Location
}

// openSegment reads and validates a segment's trailer and footer. Block
// payloads are not touched; a torn (truncated or corrupted-at-the-end)
// segment fails here with a descriptive error.
func openSegment(path string) (*segment, error) {
	seg := &segment{path: path}
	var err error
	if seg.size, err = TraceKind.ReadFooter(path, &seg.footer); err != nil {
		return nil, err
	}
	if seg.locs, err = seg.footer.locations(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return seg, nil
}

// segment returns the named segment, opening and caching it on first use.
func (s *Store) segment(name string) (*segment, error) {
	s.mu.Lock()
	if seg, ok := s.segs[name]; ok {
		s.mu.Unlock()
		return seg, nil
	}
	s.mu.Unlock()
	seg, err := openSegment(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.segs[name] = seg
	s.mu.Unlock()
	return seg, nil
}

// readBlock reads, checksums, and decompresses one block into a raw
// payload buffer (reused across calls when cap allows).
func readBlock(f *os.File, b blockInfo, raw []byte) ([]byte, error) {
	out, err := ReadFramedBlock(f, b.frame(), raw)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return out, nil
}

// decodeBlock decodes all runs of one raw block payload.
func decodeBlock(raw []byte, seg *segment, want int, dst []*trace.Run) ([]*trace.Run, error) {
	r := NewByteReader(raw)
	dst = dst[:0]
	for i := 0; i < want; i++ {
		run, err := decodeRun(r, seg.locs, seg.footer.Vars)
		if err != nil {
			return dst, fmt.Errorf("%s: run %d in block: %w", seg.path, i, err)
		}
		dst = append(dst, run)
	}
	if r.Len() != 0 {
		return dst, fmt.Errorf("%s: %d trailing bytes after %d runs in block", seg.path, r.Len(), want)
	}
	return dst, nil
}

// Iterator streams a store's runs in manifest order, decoding one block at
// a time — peak memory is one raw block (plus its decoded runs), never the
// corpus. It implements trace.RunIterator.
type Iterator struct {
	s     *Store
	infos []SegmentInfo

	segIdx   int
	seg      *segment
	f        *os.File
	blockIdx int

	raw    []byte
	runs   []*trace.Run
	runIdx int

	scannedBytes int64 // compressed bytes read
	scannedRuns  int
	maxBlockRaw  int
	err          error
}

// Iter returns an iterator over every run in the store, in segment seal
// order and within a segment in append order.
func (s *Store) Iter() *Iterator {
	return &Iterator{s: s, infos: s.Segments()}
}

// Next returns the next run, or io.EOF after the last one. Any other error
// is sticky.
func (it *Iterator) Next() (*trace.Run, error) {
	if it.err != nil {
		return nil, it.err
	}
	for it.runIdx >= len(it.runs) {
		if err := it.advance(); err != nil {
			it.err = err
			it.closeFile()
			if err == io.EOF && it.s.Obs != nil {
				m := it.s.Obs.Metrics
				m.Counter(obs.MetricCorpusScanRuns).Add(int64(it.scannedRuns))
				m.Counter(obs.MetricCorpusScanBytes).Add(it.scannedBytes)
			}
			return nil, err
		}
	}
	run := it.runs[it.runIdx]
	it.runIdx++
	it.scannedRuns++
	return run, nil
}

// advance loads the next non-empty block, crossing segment boundaries.
func (it *Iterator) advance() error {
	for {
		if it.seg == nil {
			if it.segIdx >= len(it.infos) {
				return io.EOF
			}
			seg, err := it.s.segment(it.infos[it.segIdx].Name)
			if err != nil {
				return err
			}
			f, err := os.Open(seg.path)
			if err != nil {
				return err
			}
			it.seg, it.f, it.blockIdx = seg, f, 0
		}
		if it.blockIdx >= len(it.seg.footer.Blocks) {
			it.closeFile()
			it.seg = nil
			it.segIdx++
			continue
		}
		b := it.seg.footer.Blocks[it.blockIdx]
		it.blockIdx++
		raw, err := readBlock(it.f, b, it.raw)
		if err != nil {
			return err
		}
		it.raw = raw
		if len(raw) > it.maxBlockRaw {
			it.maxBlockRaw = len(raw)
		}
		it.scannedBytes += int64(b.CompLen)
		runs, err := decodeBlock(raw, it.seg, b.Runs, it.runs)
		if err != nil {
			return err
		}
		it.runs, it.runIdx = runs, 0
		if len(runs) > 0 {
			return nil
		}
	}
}

func (it *Iterator) closeFile() {
	if it.f != nil {
		it.f.Close()
		it.f = nil
	}
}

// Close releases the iterator's open segment file. Next after Close
// returns io.EOF.
func (it *Iterator) Close() error {
	it.closeFile()
	if it.err == nil {
		it.err = io.EOF
	}
	return nil
}

// ScannedBytes returns the compressed bytes read so far (scan throughput).
func (it *Iterator) ScannedBytes() int64 { return it.scannedBytes }

// MaxBlockBytes returns the largest raw block decoded so far — the
// iterator's peak buffer, the witness for the bounded-memory guarantee.
func (it *Iterator) MaxBlockBytes() int { return it.maxBlockRaw }

// RunAt fetches the store-global i-th run (manifest order) by reading only
// that run's block: footer indices narrow the segment and block, then the
// block is decoded and scanned.
func (s *Store) RunAt(i int) (*trace.Run, error) {
	if i < 0 {
		return nil, fmt.Errorf("corpus: run index %d out of range", i)
	}
	rel := i
	for _, info := range s.Segments() {
		if rel >= info.Runs {
			rel -= info.Runs
			continue
		}
		seg, err := s.segment(info.Name)
		if err != nil {
			return nil, err
		}
		return seg.runAt(rel)
	}
	return nil, fmt.Errorf("corpus: run index %d out of range (%d runs)", i, s.TotalRuns())
}

func (seg *segment) runAt(rel int) (*trace.Run, error) {
	var blk *blockInfo
	for bi := range seg.footer.Blocks {
		b := &seg.footer.Blocks[bi]
		if rel >= b.FirstRun && rel < b.FirstRun+b.Runs {
			blk = b
			break
		}
	}
	if blk == nil {
		return nil, fmt.Errorf("corpus: %s: run %d not covered by block index", seg.path, rel)
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := readBlock(f, *blk, nil)
	if err != nil {
		return nil, err
	}
	r := NewByteReader(raw)
	for i := 0; i < blk.Runs; i++ {
		run, err := decodeRun(r, seg.locs, seg.footer.Vars)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", seg.path, err)
		}
		if blk.FirstRun+i == rel {
			return run, nil
		}
	}
	return nil, fmt.Errorf("corpus: %s: run %d missing from its block", seg.path, rel)
}

// Materialize loads the whole store into an in-memory trace.Corpus (the
// legacy representation; differential tests and small-corpus callers).
func (s *Store) Materialize() (*trace.Corpus, error) {
	c := &trace.Corpus{Program: s.Program(), Runs: make([]trace.Run, 0, s.TotalRuns())}
	it := s.Iter()
	defer it.Close()
	for {
		run, err := it.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		c.Runs = append(c.Runs, *run)
	}
}
