package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/solver"
)

// LoadStats is the outcome of a warm-start load.
type LoadStats struct {
	// Loaded is the count of entries that decoded, passed verification,
	// and were delivered to the callback.
	Loaded int64
	// Rejected counts entries that decoded but failed the verified-on-load
	// check (digest mismatch or non-satisfying model) — logic-level
	// corruption the block CRC could not see.
	Rejected int64
	// Invalidated counts entries dropped because their origin hash is in
	// the caller's drop set (changed/removed functions, tombstones).
	Invalidated int64
}

// Load streams every entry of every sealed segment through fn, skipping
// entries whose origin is in drop and entries that fail verification.
// Segment-level damage (torn file, bad block) aborts that segment with an
// error but the caller may treat it as a cold start: the store is an
// accelerator, never a source of truth.
func (s *Store) Load(drop map[uint64]bool, fn func(e solver.CacheEntry)) (LoadStats, error) {
	var stats LoadStats
	for _, info := range s.Segments() {
		if err := loadSegment(filepath.Join(s.Dir(), info.Name), drop, fn, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

func loadSegment(path string, drop map[uint64]bool, fn func(e solver.CacheEntry), stats *LoadStats) error {
	var footer segFooter
	if _, err := CacheKind.ReadFooter(path, &footer); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var raw []byte
	for bi := range footer.Blocks {
		b := &footer.Blocks[bi]
		raw, err = corpus.ReadFramedBlock(f, b.BlockFrame, raw)
		if err != nil {
			return fmt.Errorf("solvercache: %s: %w", path, err)
		}
		r := corpus.NewByteReader(raw)
		for i := 0; i < b.Entries; i++ {
			e, err := decodeEntry(r)
			if err != nil {
				return fmt.Errorf("solvercache: %s: entry %d in block %d: %w", path, i, bi, err)
			}
			if drop != nil && drop[e.Origin] {
				stats.Invalidated++
				continue
			}
			if err := checkEntry(&e); err != nil {
				stats.Rejected++
				continue
			}
			stats.Loaded++
			fn(e)
		}
	}
	return nil
}

// OriginCounts scans the store and returns the number of valid entries per
// origin hash (tombstoned and corrupt entries excluded).
func (s *Store) OriginCounts() (map[uint64]int, error) {
	counts := make(map[uint64]int)
	_, err := s.Load(nil, func(e solver.CacheEntry) { counts[e.Origin]++ })
	return counts, err
}

// TombstoneHeaviest tombstones the origin with the most cached entries and
// returns (origin, entryCount). It simulates "the hottest function was
// edited" for the warm-after-edit ablation without touching program source.
// A store with no entries returns (0, 0) and writes nothing.
func TombstoneHeaviest(dir string) (uint64, int, error) {
	s, err := Open(dir)
	if err != nil {
		return 0, 0, err
	}
	counts, err := s.OriginCounts()
	if err != nil {
		return 0, 0, err
	}
	var best uint64
	bestN := 0
	for origin, n := range counts {
		if n > bestN || (n == bestN && origin < best) {
			best, bestN = origin, n
		}
	}
	if bestN == 0 {
		return 0, 0, nil
	}
	if err := s.AddTombstones(best); err != nil {
		return 0, 0, err
	}
	return best, bestN, nil
}
