package persist

import (
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/solver"
)

// VerifySegmentFile deep-validates one cache segment: envelope (magic,
// trailer, footer CRC), every block's frame header and payload CRC, a full
// entry decode, each entry's self-consistency (stored digest vs recomputed,
// Sat models satisfying their conjunction), the within-block digest
// ordering, and the footer's min/max/count agreement.
func VerifySegmentFile(path string) (*corpus.SegmentReport, error) {
	rep := &corpus.SegmentReport{SegmentInfo: corpus.SegmentInfo{Name: filepath.Base(path)}}
	var footer segFooter
	size, err := CacheKind.ReadFooter(path, &footer)
	if err != nil {
		return rep, err
	}
	rep.Bytes = size
	rep.Blocks = len(footer.Blocks)
	frames := make([]corpus.BlockFrame, len(footer.Blocks))
	for bi := range footer.Blocks {
		frames[bi] = footer.Blocks[bi].BlockFrame
	}
	err = CacheKind.CheckBlocks(path, frames, rep, func(bi int, raw []byte) {
		b := &footer.Blocks[bi]
		r := corpus.NewByteReader(raw)
		var prev solver.CacheEntry
		for i := 0; i < b.Entries; i++ {
			e, err := decodeEntry(r)
			if err != nil {
				rep.Flag("block %d: entry %d: %v", bi, i, err)
				break
			}
			if err := checkEntry(&e); err != nil {
				rep.Flag("block %d: entry %d: %v", bi, i, err)
			}
			if i == 0 {
				if e.Digest.Sum != b.MinSum {
					rep.Flag("block %d: first digest sum %#x, footer min %#x", bi, e.Digest.Sum, b.MinSum)
				}
			} else if digestLess(&e, &prev) {
				rep.Flag("block %d: entry %d breaks digest ordering", bi, i)
			}
			if i == b.Entries-1 && e.Digest.Sum != b.MaxSum {
				rep.Flag("block %d: last digest sum %#x, footer max %#x", bi, e.Digest.Sum, b.MaxSum)
			}
			prev = e
			rep.Entries++
		}
		if r.Len() != 0 {
			rep.Flag("block %d: %d undecoded trailing bytes", bi, r.Len())
		}
	})
	if err != nil {
		return rep, err
	}
	if rep.Entries != footer.Entries {
		rep.Flag("decoded %d entries, footer declares %d", rep.Entries, footer.Entries)
	}
	return rep, nil
}

// Verify validates the whole store (see corpus.SegmentStore.VerifyWith)
// with the cache segment check.
func (s *Store) Verify() (*corpus.VerifyReport, error) { return s.VerifyWith(VerifySegmentFile) }
