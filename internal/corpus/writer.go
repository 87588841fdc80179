package corpus

import (
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Store is an on-disk trace corpus: a TraceKind store of run segments.
type Store struct {
	*SegmentStore
	segs map[string]*segment // lazily opened, footer-validated segments; guarded by mu
}

// Create initializes (or reopens) a store directory for the named program.
// An existing store is reopened and must belong to the same program.
func Create(dir, program string) (*Store, error) {
	s, err := CreateStore(TraceKind, dir, program, nil)
	if err != nil {
		return nil, err
	}
	return &Store{SegmentStore: s, segs: make(map[string]*segment)}, nil
}

// Open loads an existing store's manifest.
func Open(dir string) (*Store, error) {
	s, err := OpenStore(TraceKind, dir, nil)
	if err != nil {
		return nil, err
	}
	return &Store{SegmentStore: s, segs: make(map[string]*segment)}, nil
}

// TotalRuns returns the manifest's run count across all sealed segments.
func (s *Store) TotalRuns() int { return s.Totals().Runs }

// TotalBytes returns the on-disk size of all sealed segments.
func (s *Store) TotalBytes() int64 { return s.Totals().Bytes }

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

// Writer appends runs to a store (see SegmentWriter).
type Writer = SegmentWriter[*trace.Run]

// NewWriter returns a Writer appending to the store.
func (s *Store) NewWriter(opts Options) *Writer {
	return NewSegmentWriter[*trace.Run](s.SegmentStore, opts, &runCodec{s: s.SegmentStore})
}

// runCodec packs runs into blocks, interning locations and variable names
// in a per-segment dictionary that the footer carries.
type runCodec struct {
	s *SegmentStore // for metrics

	buf     []byte // raw payload pending in the current block
	dict    *dict
	blocks  []blockInfo
	runs    int // runs in the current segment
	records int // records in the current segment
}

func (c *runCodec) Reset() {
	c.buf = c.buf[:0]
	c.dict = newDict()
	c.blocks = nil
	c.runs, c.records = 0, 0
}

func (c *runCodec) Add(run *trace.Run) int {
	c.buf = appendRun(c.buf, run, c.dict)
	c.runs++
	c.records += len(run.Records)
	if c.s.Obs != nil {
		c.s.Obs.Metrics.Counter(obs.MetricCorpusRunsAppended).Inc()
	}
	return len(c.buf)
}

func (c *runCodec) Pending() []byte { return c.buf }

func (c *runCodec) Framed(f BlockFrame) {
	first := 0 // segment-relative index of the block's first run
	if n := len(c.blocks); n > 0 {
		first = c.blocks[n-1].FirstRun + c.blocks[n-1].Runs
	}
	c.blocks = append(c.blocks, blockInfo{
		Offset:   f.Offset,
		CompLen:  f.CompLen,
		RawLen:   f.RawLen,
		FirstRun: first,
		Runs:     c.runs - first,
		CRC:      f.CRC,
	})
	c.buf = c.buf[:0]
	if c.s.Obs != nil {
		c.s.Obs.Metrics.Counter(obs.MetricCorpusBlocksWritten).Inc()
	}
}

func (c *runCodec) Footer(program string) ([]byte, SegmentInfo, error) {
	footer := segFooter{
		Program: program,
		Runs:    c.runs,
		Records: c.records,
		Vars:    c.dict.vars,
		Blocks:  c.blocks,
	}
	footer.Locs = make([]segLoc, len(c.dict.locs))
	for i, l := range c.dict.locs {
		footer.Locs[i] = segLoc{F: l.Func, K: int(l.Kind)}
	}
	blob, err := json.Marshal(&footer)
	return blob, SegmentInfo{Runs: c.runs, Records: c.records}, err
}
