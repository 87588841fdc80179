// Package persist is the disk-backed, cross-run solver cache: it spills
// the verified-on-hit LRU entries of internal/solver (SAT models and UNSAT
// verdicts) to an append-only segment store and seeds them back into a
// SharedCache at the start of a later run, so the Nth analysis of a
// program family re-pays only the solving the first run didn't do.
//
// The on-disk machinery is the internal/corpus store layer: the manifest,
// segment naming, the writer lifecycle (CRC'd gzip blocks, crash-safe
// temp+fsync+rename sealing) and the verify walk. Only the entry codec,
// block index, footer schema, entry checks and the manifest's fns and
// tombstones keys are this package's own. Entries are keyed by the
// order-insensitive path-condition digest (solver.Digest) plus the
// intrinsic-bounds signature, and tagged with the summary.FnHash of the
// function whose branch issued the query, so a store survives renames and
// recompiles but sheds exactly the entries whose origin function's body
// changed.
//
// Correctness never depends on the store: a loaded entry is served only on
// an exact, verified match (digest + bounds signature + constraint
// multiset), every loaded SAT model is re-checked against its own
// conjunction before seeding, and block CRCs catch bit rot below that. A
// stale, torn, or corrupted store degrades hit rate, not verdicts.
package persist

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/summary"
)

// SegmentSuffix names solver-cache segment files.
const SegmentSuffix = ".scq"

// CacheKind is the solver cache's store kind. Distinct magics and names
// keep solver-cache stores self-identifying next to trace-corpus stores
// (cmd/tracecheck sniffs on them): the manifest is deliberately not the
// corpus's manifest.json.
var CacheKind = &corpus.Kind{
	Label:        "solvercache",
	SegMagic:     "SQCHv01\x00",
	TrailerMagic: "SQCHFTR1",
	Prefix:       "cache-",
	Suffix:       SegmentSuffix,
	Manifest:     "solvercache.json",
	Version:      1,
	// Cache entries are small; small blocks keep load-time partial reads
	// cheap, and solver caches are far smaller than trace corpora.
	BlockBytes:     64 << 10,
	SegmentBytes:   1 << 20,
	SegmentsMetric: obs.MetricPersistSegments,
	BytesMetric:    obs.MetricPersistBytes,
	Counts: func(c corpus.SegmentInfo) string {
		return fmt.Sprintf("%d entries", c.Entries)
	},
}

// Fn is one function's identity in the invalidation manifest: its name (for
// diff reporting and incremental re-analysis) and its content hash
// (summary.FnHash — positions and name excluded, so renames keep the hash).
type Fn struct {
	Name string `json:"name"`
	Hash uint64 `json:"hash"`
}

// FnsOf extracts the manifest function set from a compiled program, sorted
// by name.
func FnsOf(prog *bytecode.Program) []Fn {
	hashes := summary.HashProgram(prog)
	out := make([]Fn, 0, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		out = append(out, Fn{Name: fn.Name, Hash: hashes[i]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// cacheMeta is the cache's own part of the store manifest: the function
// set the cached entries were built against, and pending origin
// tombstones — origin hashes whose entries must be dropped on the next
// load (manual invalidation, and the warm-after-edit ablation's edit
// simulation). Tombstones are cleared once a session has consumed them;
// re-spilling from the next run heals the coverage.
type cacheMeta struct {
	Fns        []Fn     `json:"fns,omitempty"`
	Tombstones []uint64 `json:"tombstones,omitempty"`
}

// Store is an on-disk solver cache: a CacheKind store of entry segments
// whose manifest also carries cacheMeta.
type Store struct {
	*corpus.SegmentStore
	meta cacheMeta // guarded by the manifest lock (WithMeta)
}

// Create initializes (or reopens) a cache store for the named program. An
// existing store must belong to the same program.
func Create(dir, program string) (*Store, error) {
	s := &Store{}
	var err error
	if s.SegmentStore, err = corpus.CreateStore(CacheKind, dir, program, &s.meta); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads an existing store's manifest.
func Open(dir string) (*Store, error) {
	s := &Store{}
	var err error
	if s.SegmentStore, err = corpus.OpenStore(CacheKind, dir, &s.meta); err != nil {
		return nil, err
	}
	return s, nil
}

// Fns returns the manifest's function set (the program version the cached
// entries were built against).
func (s *Store) Fns() (fns []Fn) {
	_ = s.WithMeta(func() bool { // reads only: nothing to write, no error
		fns = append(fns, s.meta.Fns...)
		return false
	})
	return fns
}

// SetFns records the current program's function set and persists the
// manifest — called at session close, after the run's entries (attributed
// to these functions) have been sealed.
func (s *Store) SetFns(fns []Fn) error {
	return s.WithMeta(func() bool {
		s.meta.Fns = append([]Fn(nil), fns...)
		return true
	})
}

// TotalEntries returns the manifest's entry count across sealed segments.
func (s *Store) TotalEntries() int { return s.Totals().Entries }

// Tombstones returns the pending origin tombstones.
func (s *Store) Tombstones() (ts []uint64) {
	_ = s.WithMeta(func() bool { // reads only: nothing to write, no error
		ts = append(ts, s.meta.Tombstones...)
		return false
	})
	return ts
}

// AddTombstones marks origin hashes for invalidation on the next load and
// persists the manifest.
func (s *Store) AddTombstones(origins ...uint64) error {
	return s.WithMeta(func() bool {
		s.meta.Tombstones = append(s.meta.Tombstones, origins...)
		return true
	})
}

// ClearTombstones removes all pending tombstones (they have been consumed
// by a load) and persists the manifest.
func (s *Store) ClearTombstones() error {
	return s.WithMeta(func() bool {
		had := len(s.meta.Tombstones) > 0
		s.meta.Tombstones = nil
		return had
	})
}

// FnDiff is the outcome of comparing a store's manifest function set with
// a freshly compiled program.
type FnDiff struct {
	// Dirty are function names whose bodies changed or that are new —
	// incremental re-analysis must re-run candidate paths crossing them.
	Dirty []string
	// Removed are names present in the manifest but gone from the program.
	Removed []string
	// Renamed counts functions whose hash survived under a new name
	// (entries survive: origin hashes are name-independent).
	Renamed int
	// Unchanged counts functions with identical name and hash.
	Unchanged int
	// Dead is the set of origin hashes no longer present in the program —
	// entries attributed to them are invalidated at load.
	Dead map[uint64]bool
}

// HasChanges reports whether anything differs.
func (d FnDiff) HasChanges() bool { return len(d.Dirty) > 0 || len(d.Removed) > 0 }

// DiffFns compares the manifest function set against the current program's.
// An empty old set (fresh store) reports every function unchanged: there is
// nothing to invalidate.
func DiffFns(old, cur []Fn) FnDiff {
	diff := FnDiff{Dead: map[uint64]bool{}}
	if len(old) == 0 {
		diff.Unchanged = len(cur)
		return diff
	}
	oldByName := make(map[string]uint64, len(old))
	for _, f := range old {
		oldByName[f.Name] = f.Hash
	}
	curHashes := make(map[uint64]bool, len(cur))
	curNames := make(map[string]bool, len(cur))
	for _, f := range cur {
		curHashes[f.Hash] = true
		curNames[f.Name] = true
	}
	oldHashes := make(map[uint64]bool, len(old))
	for _, f := range old {
		oldHashes[f.Hash] = true
	}
	for _, f := range cur {
		oldHash, known := oldByName[f.Name]
		switch {
		case known && oldHash == f.Hash:
			diff.Unchanged++
		case !known && oldHashes[f.Hash]:
			// Same body under a new name: entries keyed by the hash live on.
			diff.Renamed++
		default:
			diff.Dirty = append(diff.Dirty, f.Name)
		}
	}
	for _, f := range old {
		if !curNames[f.Name] && !curHashes[f.Hash] {
			diff.Removed = append(diff.Removed, f.Name)
		}
		if !curHashes[f.Hash] {
			diff.Dead[f.Hash] = true
		}
	}
	sort.Strings(diff.Dirty)
	sort.Strings(diff.Removed)
	return diff
}
