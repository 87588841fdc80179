package corpus

import (
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	SegmentsBefore int
	SegmentsAfter  int
	BytesBefore    int64
	BytesAfter     int64
	Runs           int
}

// Compact rewrites the store's segments into freshly packed ones: many
// small segments (one per concurrent writer, or per short collection
// session) merge into full-size segments with one shared dictionary each.
// Runs keep their manifest order. The rewrite is crash-safe in the same
// way sealing is — new segments land via temp+rename, the manifest swap is
// atomic, and only then are the old segment files deleted — so a crash at
// any point leaves a readable store (worst case: both old and new segments
// visible in the directory, with the manifest referencing exactly one
// generation).
func (s *Store) Compact(opts Options) (*CompactResult, error) {
	old := s.Segments()
	res := &CompactResult{SegmentsBefore: len(old), Runs: s.TotalRuns()}
	for _, info := range old {
		res.BytesBefore += info.Bytes
	}
	if len(old) == 0 {
		return res, nil
	}

	w := s.NewWriter(opts)
	it := s.Iter()
	defer it.Close()
	for {
		run, err := it.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = w.Append(run)
		}
		if err != nil {
			w.Abort()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	oldNames := make(map[string]bool, len(old))
	for _, info := range old {
		oldNames[info.Name] = true
	}
	if err := s.dropSegments(oldNames); err != nil {
		return nil, err
	}
	s.mu.Lock()
	for name := range oldNames {
		delete(s.segs, name)
	}
	s.mu.Unlock()
	for name := range oldNames {
		os.Remove(filepath.Join(s.dir, name))
	}

	for _, info := range s.Segments() {
		res.SegmentsAfter++
		res.BytesAfter += info.Bytes
	}
	if s.Obs != nil {
		s.Obs.Metrics.Counter(obs.MetricCorpusCompactions).Inc()
	}
	return res, nil
}
