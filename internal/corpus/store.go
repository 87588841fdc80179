package corpus

// The shared store layer. A store is a directory holding a JSON manifest
// and sealed segment files; the trace corpus (this package) and the
// persistent solver cache (internal/solver/persist) are two kinds of store.
// Everything here is kind-agnostic: the manifest, the segment-name
// sequence, the writer lifecycle (segwriter.go) and the store-level verify
// walk. Each kind keeps only its record codec, block index, footer schema
// and record checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Kind is one store format. Each kind is a single package-level value.
type Kind struct {
	// Label prefixes the kind's errors and reports.
	Label string
	// SegMagic and TrailerMagic are a sealed segment's first and last 8
	// bytes.
	SegMagic, TrailerMagic string
	// Prefix and Suffix surround a segment file's sequence number.
	Prefix, Suffix string
	// Manifest names the manifest file; Version is its format version.
	Manifest string
	Version  int
	// BlockBytes and SegmentBytes are the default writer geometry.
	BlockBytes   int
	SegmentBytes int64
	// SegmentsMetric and BytesMetric count sealed segments and their bytes.
	SegmentsMetric, BytesMetric string
	// Counts renders a segment's record counts for reports.
	Counts func(SegmentInfo) string
}

// segmentSeq parses the sequence number out of a segment name such as
// "seg-000042.seg" (-1 when the name is foreign).
func (k *Kind) segmentSeq(name string) int {
	if !strings.HasPrefix(name, k.Prefix) || !strings.HasSuffix(name, k.Suffix) {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, k.Prefix), k.Suffix))
	if err != nil {
		return -1
	}
	return n
}

// StoreIn reports whether dir holds a store of this kind (it has the
// kind's manifest file).
func (k *Kind) StoreIn(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, k.Manifest))
	return err == nil && !st.IsDir()
}

// SegmentInfo is one sealed segment's manifest entry. A kind fills only
// its own counts: runs and records for trace segments, entries for
// solver-cache segments.
type SegmentInfo struct {
	Name    string `json:"name"`
	Runs    int    `json:"runs,omitempty"`
	Records int    `json:"records,omitempty"`
	Entries int    `json:"entries,omitempty"`
	Bytes   int64  `json:"bytes"`
}

// add accumulates o's counts and bytes into i.
func (i *SegmentInfo) add(o SegmentInfo) {
	i.Runs += o.Runs
	i.Records += o.Records
	i.Entries += o.Entries
	i.Bytes += o.Bytes
}

// manifest is the shared part of a store's index: the program the store
// belongs to and the sealed segments in seal order (the store's canonical
// record order).
type manifest struct {
	Version  int           `json:"version"`
	Program  string        `json:"program"`
	Segments []SegmentInfo `json:"segments"`
}

// SegmentStore is the kind-agnostic core of a store. One handle may serve
// several concurrent writers (each owns its own segment) and any number of
// readers; the mutex guards only the manifest and the segment-name
// sequence.
type SegmentStore struct {
	kind *Kind
	dir  string

	// Obs, when set, receives the store's metrics; nil disables them.
	Obs *obs.Obs

	mu      sync.Mutex
	man     manifest
	meta    any // the kind's own manifest keys, or nil
	nextSeq int
}

// CreateStore initializes (or reopens) a store of kind k in dir for the
// named program. An existing store must belong to the same program. meta,
// when non-nil, points at a JSON-tagged struct holding the kind's own
// top-level manifest keys: it is loaded on reopen and written with every
// manifest rewrite.
func CreateStore(k *Kind, dir, program string, meta any) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if k.StoreIn(dir) {
		s, err := OpenStore(k, dir, meta)
		if err != nil {
			return nil, err
		}
		if s.Program() != program {
			return nil, fmt.Errorf("%s: store %s belongs to %q, not %q", k.Label, dir, s.Program(), program)
		}
		return s, nil
	}
	s := &SegmentStore{kind: k, dir: dir, man: manifest{Version: k.Version, Program: program}, meta: meta}
	if err := s.writeManifestLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenStore loads an existing store's manifest (and the kind's own keys
// into meta, when non-nil).
func OpenStore(k *Kind, dir string, meta any) (*SegmentStore, error) {
	blob, err := os.ReadFile(filepath.Join(dir, k.Manifest))
	if err != nil {
		return nil, fmt.Errorf("%s: %s: %w", k.Label, dir, err)
	}
	s := &SegmentStore{kind: k, dir: dir, meta: meta}
	err = json.Unmarshal(blob, &s.man)
	if err == nil && meta != nil {
		err = json.Unmarshal(blob, meta)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %s: bad manifest: %w", k.Label, dir, err)
	}
	if s.man.Version != k.Version {
		return nil, fmt.Errorf("%s: %s: manifest version %d, want %d", k.Label, dir, s.man.Version, k.Version)
	}
	for _, seg := range s.man.Segments {
		if seq := k.segmentSeq(seg.Name); seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *SegmentStore) Dir() string { return s.dir }

// Program returns the program the store belongs to.
func (s *SegmentStore) Program() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Program
}

// Segments returns a snapshot of the sealed segments in seal order.
func (s *SegmentStore) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SegmentInfo(nil), s.man.Segments...)
}

// Totals sums the manifest entries of all sealed segments: the store's
// record counts and on-disk bytes.
func (s *SegmentStore) Totals() SegmentInfo {
	var tot SegmentInfo
	for _, seg := range s.Segments() {
		tot.add(seg)
	}
	return tot
}

// WithMeta runs fn under the manifest lock, where it may read or change
// the kind's own manifest keys. When fn reports a change, the manifest is
// rewritten.
func (s *SegmentStore) WithMeta(fn func() (changed bool)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !fn() {
		return nil
	}
	return s.writeManifestLocked()
}

func (s *SegmentStore) allocSegmentName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := fmt.Sprintf("%s%06d%s", s.kind.Prefix, s.nextSeq, s.kind.Suffix)
	s.nextSeq++
	return name
}

// registerSegment appends a sealed segment to the manifest and persists
// it, making the segment visible to readers.
func (s *SegmentStore) registerSegment(info SegmentInfo) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.man.Segments = append(s.man.Segments, info)
	return s.writeManifestLocked()
}

// dropSegments removes the named segments from the manifest and persists
// it. Deleting the files is the caller's job.
func (s *SegmentStore) dropSegments(names map[string]bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.man.Segments[:0]
	for _, seg := range s.man.Segments {
		if !names[seg.Name] {
			kept = append(kept, seg)
		}
	}
	s.man.Segments = kept
	return s.writeManifestLocked()
}

func (s *SegmentStore) writeManifestLocked() error {
	// Keep manifest order stable but also deterministic after concurrent
	// seals started from the same store state: primary key is the segment
	// sequence number (foreign names sort after, by name).
	sort.SliceStable(s.man.Segments, func(i, j int) bool {
		si, sj := s.kind.segmentSeq(s.man.Segments[i].Name), s.kind.segmentSeq(s.man.Segments[j].Name)
		if si != sj {
			if si < 0 || sj < 0 {
				return sj < 0 && si >= 0
			}
			return si < sj
		}
		return s.man.Segments[i].Name < s.man.Segments[j].Name
	})
	blob, err := json.Marshal(&s.man)
	if err != nil {
		return err
	}
	if s.meta != nil {
		// The kind's own keys follow the shared ones in the same object.
		extra, err := json.Marshal(s.meta)
		if err != nil {
			return err
		}
		if len(extra) > len("{}") {
			blob = append(append(blob[:len(blob)-1], ','), extra[1:]...)
		}
	}
	var out bytes.Buffer
	if err := json.Indent(&out, blob, "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	return durable.WriteFile(filepath.Join(s.dir, s.kind.Manifest), func(w io.Writer) error {
		_, err := out.WriteTo(w)
		return err
	})
}

// Options tunes a writer's block and segment geometry. Zero fields take
// the store kind's defaults.
type Options struct {
	// BlockBytes is the raw payload accumulated before a block is
	// compressed and flushed — the reader's peak per-block decode buffer.
	BlockBytes int
	// SegmentBytes is the compressed size at which the writer seals the
	// current segment and rolls to a new one.
	SegmentBytes int64
}

func (o Options) withDefaults(k *Kind) Options {
	if o.BlockBytes <= 0 {
		o.BlockBytes = k.BlockBytes
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = k.SegmentBytes
	}
	return o
}

// SegmentReport is the outcome of deep-validating one segment file: what
// its blocks decoded to, and the problems found.
type SegmentReport struct {
	SegmentInfo
	Blocks   int
	Problems []string
}

// OK reports whether the segment validated cleanly.
func (r *SegmentReport) OK() bool { return len(r.Problems) == 0 }

// Flag records a problem; past 20 the rest are dropped.
func (r *SegmentReport) Flag(format string, args ...any) { flag(&r.Problems, format, args...) }

func flag(problems *[]string, format string, args ...any) {
	if len(*problems) < 20 {
		*problems = append(*problems, fmt.Sprintf(format, args...))
	}
}

// CheckBlocks is the kind-agnostic half of a deep segment check: it reads
// every block of the segment at path (contiguous offsets from the magic
// on, frame header against the footer index, payload CRC, decompressed
// length) and hands each raw payload to decode. A bad block ends the walk,
// since the offsets after it cannot be trusted.
func (k *Kind) CheckBlocks(path string, frames []BlockFrame, rep *SegmentReport, decode func(bi int, raw []byte)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var raw []byte
	next := int64(len(k.SegMagic))
	for bi, b := range frames {
		if b.Offset != next {
			rep.Flag("block %d: offset %d, want contiguous %d", bi, b.Offset, next)
		}
		if raw, err = ReadFramedBlock(f, b, raw); err != nil {
			rep.Flag("block %d: %v", bi, err)
			break
		}
		// Frame header length varies with the varint widths; recompute it.
		next = b.Offset + int64(FrameHeaderLen(b)) + int64(b.CompLen)
		decode(bi, raw)
	}
	return nil
}

// VerifyReport aggregates a whole-store validation.
type VerifyReport struct {
	kind     *Kind
	Segments []SegmentReport
	// Problems are store-level findings (manifest inconsistencies, stray
	// temp files); per-segment findings live on the segment reports.
	Problems []string
}

// OK reports whether the store validated cleanly.
func (r *VerifyReport) OK() bool {
	if len(r.Problems) > 0 {
		return false
	}
	for i := range r.Segments {
		if !r.Segments[i].OK() {
			return false
		}
	}
	return true
}

// Summary renders a one-line validation summary.
func (r *VerifyReport) Summary() string {
	var tot SegmentInfo
	blocks, problems := 0, len(r.Problems)
	for i := range r.Segments {
		tot.add(r.Segments[i].SegmentInfo)
		blocks += r.Segments[i].Blocks
		problems += len(r.Segments[i].Problems)
	}
	return fmt.Sprintf("%d segments, %d blocks, %s, %d problems",
		len(r.Segments), blocks, r.kind.Counts(tot), problems)
}

// AllProblems flattens store- and segment-level findings.
func (r *VerifyReport) AllProblems() []string {
	out := append([]string(nil), r.Problems...)
	for i := range r.Segments {
		for _, p := range r.Segments[i].Problems {
			out = append(out, r.Segments[i].Name+": "+p)
		}
	}
	return out
}

// VerifyWith validates the whole store with check, the kind's deep
// segment check: every manifest segment must pass it and agree with its
// manifest entry; stray temp files and unmanifested segments are reported
// as store-level problems. The error return is reserved for I/O failures
// on the store directory itself — corruption is reported, not returned.
func (s *SegmentStore) VerifyWith(check func(path string) (*SegmentReport, error)) (*VerifyReport, error) {
	rep := &VerifyReport{kind: s.kind}
	manifested := make(map[string]bool)
	for _, info := range s.Segments() {
		manifested[info.Name] = true
		segRep, err := check(filepath.Join(s.dir, info.Name))
		if err != nil {
			segRep.Flag("%v", err)
		} else if got := segRep.SegmentInfo; got != info {
			segRep.Flag("manifest declares %s, %d bytes; segment holds %s, %d bytes",
				s.kind.Counts(info), info.Bytes, s.kind.Counts(got), got.Bytes)
		}
		rep.Segments = append(rep.Segments, *segRep)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == s.kind.Manifest || e.IsDir():
		case strings.Contains(name, ".tmp-"):
			flag(&rep.Problems, "stray temp file %s (crashed writer; safe to delete)", name)
		case strings.HasSuffix(name, s.kind.Suffix) && !manifested[name]:
			flag(&rep.Problems, "segment %s on disk but not in manifest", name)
		}
	}
	return rep, nil
}
