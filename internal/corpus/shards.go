package corpus

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	shardsManifestName    = "shards.json"
	shardsManifestVersion = 1
	// DefaultShards is the shard count for a sharded corpus created
	// without an explicit fan-out.
	DefaultShards = 4
	// MaxShards bounds the fan-out a creator may request (a shard costs a
	// directory, a writer, and an open segment; hundreds buy nothing).
	MaxShards = 64
)

// shardsManifest is the on-disk root of a sharded corpus: the program and
// the fixed shard fan-out. Written once at create time through
// durable.WriteFile; the per-shard stores carry their own crash-safe
// manifests.
type shardsManifest struct {
	Version int    `json:"version"`
	Program string `json:"program"`
	Shards  int    `json:"shards"`
}

// Sharded routes concurrent run appends across a fixed set of shard
// stores, one Writer per shard, so a fleet of monitor agents streaming
// into one corpus contend only on their own shard's writer. Appends
// round-robin over the shards (an atomic counter, no coordination);
// each shard is an ordinary crash-safe segment Store, so a crash mid
// -stream loses at worst the unsealed tail of each shard's open segment.
type Sharded struct {
	dir     string
	program string
	stores  []*Store

	next atomic.Uint64 // round-robin append cursor

	// One writer per shard, each guarded by its own mutex: concurrent
	// Append calls landing on different shards proceed in parallel.
	writers []*Writer
	wmu     []sync.Mutex

	appended atomic.Int64 // runs appended through this handle
}

// CreateSharded initializes (or reopens) a sharded corpus at dir for the
// named program with the given fan-out (0: DefaultShards). Reopening
// keeps the original fan-out and requires a matching program.
func CreateSharded(dir, program string, shards int) (*Sharded, error) {
	if _, err := os.Stat(filepath.Join(dir, shardsManifestName)); err == nil {
		s, err := OpenSharded(dir)
		if err != nil {
			return nil, err
		}
		if s.program != program {
			return nil, fmt.Errorf("corpus: sharded store %s belongs to %q, not %q", dir, s.program, program)
		}
		return s, nil
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := shardsManifest{Version: shardsManifestVersion, Program: program, Shards: shards}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	err = durable.WriteFile(filepath.Join(dir, shardsManifestName), func(w io.Writer) error {
		_, err := w.Write(append(blob, '\n'))
		return err
	})
	if err != nil {
		return nil, err
	}
	return OpenSharded(dir)
}

// OpenSharded opens an existing sharded corpus.
func OpenSharded(dir string) (*Sharded, error) {
	blob, err := os.ReadFile(filepath.Join(dir, shardsManifestName))
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", dir, err)
	}
	var man shardsManifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("corpus: %s: bad shards manifest: %w", dir, err)
	}
	if man.Version != shardsManifestVersion {
		return nil, fmt.Errorf("corpus: %s: shards manifest version %d, want %d", dir, man.Version, shardsManifestVersion)
	}
	if man.Shards <= 0 || man.Shards > MaxShards {
		return nil, fmt.Errorf("corpus: %s: shards manifest fan-out %d out of range", dir, man.Shards)
	}
	s := &Sharded{
		dir:     dir,
		program: man.Program,
		stores:  make([]*Store, man.Shards),
		writers: make([]*Writer, man.Shards),
		wmu:     make([]sync.Mutex, man.Shards),
	}
	for i := range s.stores {
		st, err := Create(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), man.Program)
		if err != nil {
			return nil, err
		}
		s.stores[i] = st
	}
	return s, nil
}

// Dir returns the sharded corpus root directory.
func (s *Sharded) Dir() string { return s.dir }

// Program returns the program the corpus was collected from.
func (s *Sharded) Program() string { return s.program }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.stores) }

// Stores returns the underlying shard stores in shard order (validation
// and iteration; callers must not write through them directly).
func (s *Sharded) Stores() []*Store { return append([]*Store(nil), s.stores...) }

// SetObs attaches a metrics handle to every shard store.
func (s *Sharded) SetObs(o *obs.Obs) {
	for _, st := range s.stores {
		st.Obs = o
	}
}

// Append routes one run to the next shard in round-robin order. Safe for
// any number of concurrent callers; two appends racing to the same shard
// serialize on that shard's writer mutex only.
func (s *Sharded) Append(run *trace.Run) error {
	i := int(s.next.Add(1)-1) % len(s.stores)
	s.wmu[i].Lock()
	defer s.wmu[i].Unlock()
	if s.writers[i] == nil {
		s.writers[i] = s.stores[i].NewWriter(Options{})
	}
	if err := s.writers[i].Append(run); err != nil {
		return err
	}
	s.appended.Add(1)
	return nil
}

// Appended returns the number of runs appended through this handle (not
// counting runs already on disk when it was opened).
func (s *Sharded) Appended() int64 { return s.appended.Load() }

// Seal flushes and seals every shard's open writer (temp+fsync+rename per
// segment, as for any Store writer). Safe to call repeatedly; appends may
// continue afterwards (a fresh writer starts a fresh segment).
func (s *Sharded) Seal() error {
	var first error
	for i := range s.writers {
		s.wmu[i].Lock()
		w := s.writers[i]
		s.writers[i] = nil
		s.wmu[i].Unlock()
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TotalRuns sums the sealed run counts across shards (unsealed appends
// are not yet visible, exactly like a single Store).
func (s *Sharded) TotalRuns() int {
	n := 0
	for _, st := range s.stores {
		n += st.TotalRuns()
	}
	return n
}

// TotalBytes sums the sealed on-disk bytes across shards.
func (s *Sharded) TotalBytes() int64 {
	var n int64
	for _, st := range s.stores {
		n += st.TotalBytes()
	}
	return n
}

// Materialize merges every shard into one in-memory corpus, shard by
// shard in shard order — deterministic for a given sealed corpus, so two
// analyses of the same directory see the same run sequence.
func (s *Sharded) Materialize() (*trace.Corpus, error) {
	c := &trace.Corpus{Program: s.program}
	for _, st := range s.stores {
		part, err := st.Materialize()
		if err != nil {
			return nil, err
		}
		c.Runs = append(c.Runs, part.Runs...)
	}
	return c, nil
}

// Verify deep-checks every shard store and flattens the findings.
func (s *Sharded) Verify() (problems []string, summary string, err error) {
	var tot SegmentInfo
	blocks := 0
	for i, st := range s.stores {
		rep, err := st.Verify()
		if err != nil {
			return nil, "", fmt.Errorf("shard %d: %w", i, err)
		}
		for _, p := range rep.AllProblems() {
			problems = append(problems, fmt.Sprintf("shard %d: %s", i, p))
		}
		for _, seg := range rep.Segments {
			tot.add(seg.SegmentInfo)
			blocks += seg.Blocks
		}
	}
	summary = fmt.Sprintf("sharded corpus — %d shards, %d blocks, %d runs, %d bytes, %d problems",
		len(s.stores), blocks, tot.Runs, tot.Bytes, len(problems))
	return problems, summary, nil
}

// IsShardedDir reports whether dir holds a sharded corpus (recognized by
// its shards.json manifest) — how tracecheck routes directories.
func IsShardedDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, shardsManifestName))
	return err == nil
}
