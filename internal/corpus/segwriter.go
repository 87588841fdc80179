package corpus

import (
	"os"
	"path/filepath"
)

// Codec is a store kind's record half of a SegmentWriter: it packs records
// into block payloads, indexes the framed blocks and renders the footer.
type Codec[R any] interface {
	// Reset clears the per-segment state when a new segment starts.
	Reset()
	// Add buffers one record in the pending block and returns the pending
	// block's size, which the writer measures against BlockBytes.
	Add(rec R) int
	// Pending encodes the pending block (empty when nothing is pending).
	Pending() []byte
	// Framed indexes the pending block under the frame it was written at
	// and empties it.
	Framed(frame BlockFrame)
	// Footer renders the segment's footer blob and its manifest counts.
	Footer(program string) ([]byte, SegmentInfo, error)
}

// SegmentWriter appends records to a store. Each writer owns the segment
// it is filling, so concurrent writers on one store never contend except
// at the manifest. A segment starts on the first Append, rolls at
// SegmentBytes, and becomes visible only when sealed (footer written, file
// fsynced, temp name renamed into place, manifest entry added), so a crash
// mid-append leaves at worst an invisible *.tmp-* file.
//
// A SegmentWriter is single-goroutine.
type SegmentWriter[R any] struct {
	s     *SegmentStore
	opts  Options
	codec Codec[R]

	seg    *SegmentFile // nil between segments
	name   string
	blocks int // blocks framed in the open segment

	sealed []SegmentInfo // segments this writer sealed
}

// NewSegmentWriter returns a writer appending to s through the kind's
// codec.
func NewSegmentWriter[R any](s *SegmentStore, opts Options, codec Codec[R]) *SegmentWriter[R] {
	return &SegmentWriter[R]{s: s, opts: opts.withDefaults(s.kind), codec: codec}
}

// Append encodes one record into the writer's current segment, flushing a
// compressed block when the pending block reaches BlockBytes and sealing
// and rolling the segment when it reaches SegmentBytes.
func (w *SegmentWriter[R]) Append(rec R) error {
	if w.seg == nil {
		w.name = w.s.allocSegmentName()
		seg, err := CreateSegmentFile(w.s.dir, w.name, w.s.kind.SegMagic)
		if err != nil {
			return err
		}
		w.seg, w.blocks = seg, 0
		w.codec.Reset()
	}
	if w.codec.Add(rec) >= w.opts.BlockBytes {
		if err := w.flush(); err != nil {
			return err
		}
		if w.seg.Written() >= w.opts.SegmentBytes {
			return w.seal()
		}
	}
	return nil
}

// flush compresses the pending block and writes one framed block.
func (w *SegmentWriter[R]) flush() error {
	raw := w.codec.Pending()
	if len(raw) == 0 {
		return nil
	}
	frame, err := w.seg.AppendBlock(raw)
	if err != nil {
		return err
	}
	w.codec.Framed(frame)
	w.blocks++
	return nil
}

// seal flushes the pending block, writes the footer and trailer, fsyncs,
// renames the temp file to its segment name and registers the segment in
// the manifest. A segment nothing was appended to is discarded instead.
func (w *SegmentWriter[R]) seal() error {
	if w.seg == nil {
		return nil
	}
	err := w.flush()
	var footer []byte
	var info SegmentInfo
	if err == nil && w.blocks > 0 {
		footer, info, err = w.codec.Footer(w.s.Program())
	}
	if err != nil || w.blocks == 0 {
		w.discard()
		return err
	}
	size, err := w.seg.Seal(footer, w.s.kind.TrailerMagic)
	w.seg = nil
	if err != nil {
		return err
	}
	info.Name, info.Bytes = w.name, size
	w.sealed = append(w.sealed, info)
	if o := w.s.Obs; o != nil {
		o.Metrics.Counter(w.s.kind.SegmentsMetric).Inc()
		o.Metrics.Counter(w.s.kind.BytesMetric).Add(size)
	}
	return w.s.registerSegment(info)
}

// discard deletes the open segment unsealed.
func (w *SegmentWriter[R]) discard() {
	if w.seg != nil {
		w.seg.Abort()
		w.seg = nil
	}
}

// Close seals the in-progress segment, if any. The writer may be reused
// afterwards (the next Append starts a fresh segment).
func (w *SegmentWriter[R]) Close() error { return w.seal() }

// Abort discards every record this writer appended: the in-progress
// segment is deleted unsealed, and the segments it already sealed (rolled
// over at SegmentBytes, or by an earlier Close) are dropped from the
// manifest and removed from disk. A caller whose batch must be
// all-or-nothing — a collection that fails part way — aborts instead of
// closing, so no partial batch ever becomes visible to readers.
func (w *SegmentWriter[R]) Abort() error {
	w.discard()
	if len(w.sealed) == 0 {
		return nil
	}
	names := make(map[string]bool, len(w.sealed))
	for _, info := range w.sealed {
		names[info.Name] = true
	}
	w.sealed = nil
	if err := w.s.dropSegments(names); err != nil {
		return err
	}
	for name := range names {
		os.Remove(filepath.Join(w.s.dir, name))
	}
	return nil
}

// Sealed sums the manifest entries of the segments this writer has made
// durable: their record counts and on-disk bytes.
func (w *SegmentWriter[R]) Sealed() SegmentInfo {
	var tot SegmentInfo
	for _, info := range w.sealed {
		tot.add(info)
	}
	return tot
}
