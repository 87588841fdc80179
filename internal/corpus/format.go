// Package corpus implements a durable, segmented, append-only trace store:
// the on-disk home of the runtime logs the Program Monitor emits (§III-B)
// once corpora outgrow the in-memory trace.Corpus + one-blob JSON file of
// internal/trace. A store is a directory holding a small JSON manifest and
// a set of immutable segment files; each segment packs length-prefixed,
// varint-encoded, string-interned run records into gzip-compressed blocks
// and ends with a footer index (run counts, per-block byte offsets and
// CRC32 checksums, the segment's location and variable dictionaries) so
// readers can stream block-by-block or fetch single runs without ever
// materializing the corpus. Writers seal segments through a temp-file +
// rename, so a crash never leaves a torn segment visible.
package corpus

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TraceKind is the trace corpus's store kind. The magic strings are 8
// bytes so both ends of a segment are self-identifying; bumping the format
// bumps the digit.
var TraceKind = &Kind{
	Label:        "corpus",
	SegMagic:     "SSEGv01\x00",
	TrailerMagic: "SSEGFTR1",
	Prefix:       "seg-",
	Suffix:       ".seg",
	Manifest:     "manifest.json",
	Version:      1,
	// A block's raw payload target is the unit of streaming reads, and
	// therefore the reader's peak decode buffer.
	BlockBytes: 256 << 10,
	// The compressed roll size is small enough to bound per-segment
	// dictionaries and large enough that footer overhead vanishes.
	SegmentBytes:   8 << 20,
	SegmentsMetric: obs.MetricCorpusSegmentsSealed,
	BytesMetric:    obs.MetricCorpusBytesWritten,
	Counts: func(c SegmentInfo) string {
		return fmt.Sprintf("%d runs, %d records", c.Runs, c.Records)
	},
}

// dict interns the strings a segment's records repeat on every event:
// instrumentation locations and variable names. IDs are dense and assigned
// in first-use order during encoding; the tables are serialized in the
// segment footer and are the only way to decode the segment's records.
type dict struct {
	locs   []trace.Location
	locIDs map[trace.Location]uint32
	vars   []string
	varIDs map[string]uint32
}

func newDict() *dict {
	return &dict{
		locIDs: make(map[trace.Location]uint32),
		varIDs: make(map[string]uint32),
	}
}

func (d *dict) locID(l trace.Location) uint32 {
	id, ok := d.locIDs[l]
	if !ok {
		id = uint32(len(d.locs))
		d.locIDs[l] = id
		d.locs = append(d.locs, l)
	}
	return id
}

func (d *dict) varID(name string) uint32 {
	id, ok := d.varIDs[name]
	if !ok {
		id = uint32(len(d.vars))
		d.varIDs[name] = id
		d.vars = append(d.vars, name)
	}
	return id
}

// Run record layout (all integers varint unless noted):
//
//	uvarint  run ID
//	byte     flags (bit0: faulty)
//	[faulty] string faultKind, string faultFunc   (uvarint len + bytes)
//	uvarint  record count
//	records: uvarint locID
//	         uvarint observation count
//	         obs:    uvarint varID
//	                 byte meta (bits 0-1: VarClass, bit 2: string value)
//	                 int value:    zigzag varint
//	                 string value: uvarint len + bytes

const (
	runFlagFaulty = 1 << 0
	obsMetaString = 1 << 2
	obsClassMask  = 0x3
)

// appendRun encodes one run onto dst, interning strings through d.
func appendRun(dst []byte, run *trace.Run, d *dict) []byte {
	dst = binary.AppendUvarint(dst, uint64(run.ID))
	var flags byte
	if run.Faulty {
		flags |= runFlagFaulty
	}
	dst = append(dst, flags)
	if run.Faulty {
		dst = appendString(dst, run.FaultKind)
		dst = appendString(dst, run.FaultFunc)
	}
	dst = binary.AppendUvarint(dst, uint64(len(run.Records)))
	for _, rec := range run.Records {
		dst = binary.AppendUvarint(dst, uint64(d.locID(rec.Loc)))
		dst = binary.AppendUvarint(dst, uint64(len(rec.Obs)))
		for _, ob := range rec.Obs {
			dst = binary.AppendUvarint(dst, uint64(d.varID(ob.Var)))
			meta := byte(ob.Class) & obsClassMask
			if ob.Kind == trace.ValueString {
				meta |= obsMetaString
			}
			dst = append(dst, meta)
			if ob.Kind == trace.ValueString {
				dst = appendString(dst, ob.Str)
			} else {
				dst = binary.AppendVarint(dst, ob.Int)
			}
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeRun decodes one run using the segment's dictionary tables. Counts
// are sanity-bounded by the remaining bytes (every record and observation
// costs at least two bytes) so corrupt headers cannot force giant
// allocations.
func decodeRun(r *ByteReader, locs []trace.Location, vars []string) (*trace.Run, error) {
	id, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if id > math.MaxInt32 {
		return nil, fmt.Errorf("corpus: implausible run ID %d", id)
	}
	flags, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if flags&^byte(runFlagFaulty) != 0 {
		return nil, fmt.Errorf("corpus: unknown run flags %#x", flags)
	}
	run := &trace.Run{ID: int(id), Faulty: flags&runFlagFaulty != 0}
	if run.Faulty {
		if run.FaultKind, err = r.String(); err != nil {
			return nil, err
		}
		if run.FaultFunc, err = r.String(); err != nil {
			return nil, err
		}
	}
	nrec, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nrec > uint64(r.Len()/2+1) {
		return nil, fmt.Errorf("corpus: record count %d exceeds remaining %d bytes", nrec, r.Len())
	}
	if nrec > 0 {
		run.Records = make([]trace.Record, 0, nrec)
	}
	for i := uint64(0); i < nrec; i++ {
		locID, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if locID >= uint64(len(locs)) {
			return nil, fmt.Errorf("corpus: location ID %d out of dictionary range %d", locID, len(locs))
		}
		rec := trace.Record{Loc: locs[locID]}
		nobs, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nobs > uint64(r.Len()/2+1) {
			return nil, fmt.Errorf("corpus: observation count %d exceeds remaining %d bytes", nobs, r.Len())
		}
		if nobs > 0 {
			rec.Obs = make([]trace.Observation, 0, nobs)
		}
		for j := uint64(0); j < nobs; j++ {
			varID, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if varID >= uint64(len(vars)) {
				return nil, fmt.Errorf("corpus: variable ID %d out of dictionary range %d", varID, len(vars))
			}
			meta, err := r.Byte()
			if err != nil {
				return nil, err
			}
			if meta&^byte(obsClassMask|obsMetaString) != 0 {
				return nil, fmt.Errorf("corpus: unknown observation meta %#x", meta)
			}
			class := trace.VarClass(meta & obsClassMask)
			if class < trace.ClassGlobal || class > trace.ClassReturn {
				return nil, fmt.Errorf("corpus: invalid variable class %d", class)
			}
			ob := trace.Observation{Var: vars[varID], Class: class}
			if meta&obsMetaString != 0 {
				ob.Kind = trace.ValueString
				if ob.Str, err = r.String(); err != nil {
					return nil, err
				}
			} else {
				ob.Kind = trace.ValueInt
				if ob.Int, err = r.Varint(); err != nil {
					return nil, err
				}
			}
			rec.Obs = append(rec.Obs, ob)
		}
		run.Records = append(run.Records, rec)
	}
	return run, nil
}

// segLoc is the footer serialization of an interned location (structured,
// not the "f():enter" rendering, so arbitrary function names round-trip).
type segLoc struct {
	F string `json:"f"`
	K int    `json:"k"`
}

// blockInfo is one compressed block's footer index entry.
type blockInfo struct {
	Offset   int64  `json:"off"`   // file offset of the block header
	CompLen  int    `json:"clen"`  // compressed payload bytes
	RawLen   int    `json:"rlen"`  // uncompressed payload bytes
	FirstRun int    `json:"first"` // segment-relative index of the first run
	Runs     int    `json:"runs"`  // runs encoded in the block
	CRC      uint32 `json:"crc"`   // CRC32 (IEEE) of the compressed payload
}

// frame projects the block's index entry onto the generic framed-block
// layer's view (dropping the run-count fields the trace format adds).
func (b blockInfo) frame() BlockFrame {
	return BlockFrame{Offset: b.Offset, CompLen: b.CompLen, RawLen: b.RawLen, CRC: b.CRC}
}

// segFooter is the per-segment index, serialized as JSON ahead of the
// fixed-size trailer.
type segFooter struct {
	Program string      `json:"program"`
	Runs    int         `json:"runs"`
	Records int         `json:"records"`
	Locs    []segLoc    `json:"locs"`
	Vars    []string    `json:"vars"`
	Blocks  []blockInfo `json:"blocks"`
}

func (f *segFooter) locations() ([]trace.Location, error) {
	locs := make([]trace.Location, len(f.Locs))
	for i, l := range f.Locs {
		kind := trace.EventKind(l.K)
		if kind != trace.EventEnter && kind != trace.EventLeave {
			return nil, fmt.Errorf("corpus: footer location %d has invalid kind %d", i, l.K)
		}
		locs[i] = trace.Location{Func: l.F, Kind: kind}
	}
	return locs, nil
}
