package corpus

import "path/filepath"

// VerifySegmentFile fully validates one segment: magic, trailer, footer
// checksum, every block's frame header, payload CRC, decompressed length,
// and a complete record decode against the footer dictionaries. It is the
// deep check cmd/corpus verify and cmd/tracecheck run; a truncated or
// bit-flipped segment comes back with Problems (or an open error when even
// the footer is unreadable).
func VerifySegmentFile(path string) (*SegmentReport, error) {
	rep := &SegmentReport{SegmentInfo: SegmentInfo{Name: filepath.Base(path)}}
	seg, err := openSegment(path)
	if err != nil {
		return rep, err
	}
	rep.Bytes = seg.size
	rep.Blocks = len(seg.footer.Blocks)
	frames := make([]BlockFrame, len(seg.footer.Blocks))
	nextFirst := 0
	for bi, b := range seg.footer.Blocks {
		frames[bi] = b.frame()
		if b.FirstRun != nextFirst {
			rep.Flag("block %d: first run %d, want %d", bi, b.FirstRun, nextFirst)
		}
		nextFirst = b.FirstRun + b.Runs
	}
	err = TraceKind.CheckBlocks(path, frames, rep, func(bi int, raw []byte) {
		decoded, err := decodeBlock(raw, seg, seg.footer.Blocks[bi].Runs, nil)
		if err != nil {
			rep.Flag("block %d: %v", bi, err)
			return
		}
		rep.Runs += len(decoded)
		for _, run := range decoded {
			rep.Records += len(run.Records)
		}
	})
	if err != nil {
		return rep, err
	}
	if rep.Runs != seg.footer.Runs {
		rep.Flag("decoded %d runs, footer declares %d", rep.Runs, seg.footer.Runs)
	}
	if rep.Records != seg.footer.Records {
		rep.Flag("decoded %d records, footer declares %d", rep.Records, seg.footer.Records)
	}
	return rep, nil
}

// Verify validates the whole store (see SegmentStore.VerifyWith) with the
// trace segment check.
func (s *Store) Verify() (*VerifyReport, error) { return s.VerifyWith(VerifySegmentFile) }
