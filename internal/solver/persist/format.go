package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/corpus"
	"repro/internal/solver"
)

// A persisted solver verdict is a solver.CacheEntry: the conjunction's
// identity (digest + bounds signature), its origin function's content
// hash, the canonical constraint multiset, and the verdict with its model
// (Sat only).
//
// Record layout (all integers varint unless noted):
//
//	uvarint digest sum
//	uvarint digest N
//	uvarint bounds signature
//	uvarint origin FnHash
//	byte    flags (bit0: Sat, bit1: model present)
//	uvarint constraint count
//	cons:   byte op (OpLe/OpEq/OpNe)
//	        varint Const
//	        uvarint term count
//	        terms:  uvarint Var, varint Coeff
//	[model] uvarint assignment count, sorted by Var
//	        each:   uvarint Var, varint value

const (
	entryFlagSat   = 1 << 0
	entryFlagModel = 1 << 1
)

// appendEntry encodes one entry onto dst. Only Sat/Unsat verdicts are
// persistable (Unknown is a budget artifact, filtered upstream).
func appendEntry(dst []byte, e *solver.CacheEntry) []byte {
	dst = binary.AppendUvarint(dst, e.Digest.Sum)
	dst = binary.AppendUvarint(dst, uint64(e.Digest.N))
	dst = binary.AppendUvarint(dst, e.BSig)
	dst = binary.AppendUvarint(dst, e.Origin)
	var flags byte
	if e.Res == solver.Sat {
		flags |= entryFlagSat
	}
	if e.Model != nil {
		flags |= entryFlagModel
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(e.Cons)))
	for _, c := range e.Cons {
		dst = append(dst, byte(c.Op))
		dst = binary.AppendVarint(dst, c.E.Const)
		dst = binary.AppendUvarint(dst, uint64(len(c.E.Terms)))
		for _, t := range c.E.Terms {
			dst = binary.AppendUvarint(dst, uint64(uint32(t.Var)))
			dst = binary.AppendVarint(dst, t.Coeff)
		}
	}
	if e.Model != nil {
		dst = binary.AppendUvarint(dst, uint64(e.Model.Len()))
		e.Model.Range(func(v solver.Var, x int64) bool {
			dst = binary.AppendUvarint(dst, uint64(uint32(v)))
			dst = binary.AppendVarint(dst, x)
			return true
		})
	}
	return dst
}

// decodeEntry decodes one entry. Counts are sanity-bounded by the remaining
// bytes so corrupt headers cannot force giant allocations.
func decodeEntry(r *corpus.ByteReader) (solver.CacheEntry, error) {
	var e solver.CacheEntry
	sum, err := r.Uvarint()
	if err != nil {
		return e, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return e, err
	}
	e.Digest = solver.Digest{Sum: sum, N: int(n)}
	if e.BSig, err = r.Uvarint(); err != nil {
		return e, err
	}
	if e.Origin, err = r.Uvarint(); err != nil {
		return e, err
	}
	flags, err := r.Byte()
	if err != nil {
		return e, err
	}
	if flags&^byte(entryFlagSat|entryFlagModel) != 0 {
		return e, fmt.Errorf("unknown entry flags %#x", flags)
	}
	if flags&entryFlagSat != 0 {
		e.Res = solver.Sat
	} else {
		e.Res = solver.Unsat
	}
	ncons, err := r.Uvarint()
	if err != nil {
		return e, err
	}
	if ncons > uint64(r.Len()/2+1) {
		return e, fmt.Errorf("constraint count %d exceeds remaining %d bytes", ncons, r.Len())
	}
	e.Cons = make([]solver.Constraint, 0, ncons)
	for i := uint64(0); i < ncons; i++ {
		op, err := r.Byte()
		if err != nil {
			return e, err
		}
		cop := solver.ConstraintOp(op)
		if cop != solver.OpLe && cop != solver.OpEq && cop != solver.OpNe {
			return e, fmt.Errorf("invalid constraint op %d", op)
		}
		c := solver.Constraint{Op: cop}
		if c.E.Const, err = r.Varint(); err != nil {
			return e, err
		}
		nterms, err := r.Uvarint()
		if err != nil {
			return e, err
		}
		if nterms > uint64(r.Len()/2+1) {
			return e, fmt.Errorf("term count %d exceeds remaining %d bytes", nterms, r.Len())
		}
		if nterms > 0 {
			c.E.Terms = make([]solver.Term, 0, nterms)
		}
		for j := uint64(0); j < nterms; j++ {
			v, err := r.Uvarint()
			if err != nil {
				return e, err
			}
			coeff, err := r.Varint()
			if err != nil {
				return e, err
			}
			c.E.Terms = append(c.E.Terms, solver.Term{Coeff: coeff, Var: solver.Var(int32(uint32(v)))})
		}
		e.Cons = append(e.Cons, c)
	}
	if flags&entryFlagModel != 0 {
		nvals, err := r.Uvarint()
		if err != nil {
			return e, err
		}
		if nvals > uint64(r.Len()/2+1) {
			return e, fmt.Errorf("model size %d exceeds remaining %d bytes", nvals, r.Len())
		}
		var m solver.ModelBuilder
		for i := uint64(0); i < nvals; i++ {
			v, err := r.Uvarint()
			if err != nil {
				return e, err
			}
			val, err := r.Varint()
			if err != nil {
				return e, err
			}
			m.Set(solver.Var(int32(uint32(v))), val)
		}
		e.Model = m.Model()
	}
	return e, nil
}

// checkEntry re-derives an entry's identity from its own payload — the
// verified-on-load contract. The stored digest must equal the digest of the
// stored conjunction, and a Sat entry's model must satisfy every stored
// constraint. An entry that fails is rejected (never seeded), so logic-level
// corruption that slipped past the block CRC degrades hit rate, not
// correctness. A fabricated Unsat verdict over a consistent conjunction is
// not detectable without solving; the store is trusted to the same degree
// as every other local artifact.
func checkEntry(e *solver.CacheEntry) error {
	if d := solver.DigestOf(e.Cons); d != e.Digest {
		return fmt.Errorf("stored digest %x/%d does not match conjunction digest %x/%d",
			e.Digest.Sum, e.Digest.N, d.Sum, d.N)
	}
	if e.Res == solver.Sat {
		for i, c := range e.Cons {
			if !c.Holds(e.Model) {
				return fmt.Errorf("stored model does not satisfy constraint %d", i)
			}
		}
	}
	return nil
}

// digestLess reports a < b under the canonical (digest sum, N, bounds
// signature) order that every sealed block's entries follow.
func digestLess(a, b *solver.CacheEntry) bool {
	if a.Digest.Sum != b.Digest.Sum {
		return a.Digest.Sum < b.Digest.Sum
	}
	if a.Digest.N != b.Digest.N {
		return a.Digest.N < b.Digest.N
	}
	return a.BSig < b.BSig
}

// blockIndex is one compressed block's footer entry: the generic frame plus
// the entry count and the block's digest-sum range (the ordering invariant
// verifiers check without decoding neighbors).
type blockIndex struct {
	corpus.BlockFrame
	Entries int    `json:"entries"`
	MinSum  uint64 `json:"min"`
	MaxSum  uint64 `json:"max"`
}

// segFooter is the per-segment index, serialized as JSON ahead of the
// fixed-size trailer.
type segFooter struct {
	Program string       `json:"program"`
	Entries int          `json:"entries"`
	Blocks  []blockIndex `json:"blocks"`
}

// Writer appends cache entries to a store (see corpus.SegmentWriter).
type Writer = corpus.SegmentWriter[solver.CacheEntry]

// Options tunes a Writer's block and segment geometry; zero fields take
// CacheKind's defaults.
type Options = corpus.Options

// NewWriter returns a Writer appending to the store.
func (s *Store) NewWriter(opts Options) *Writer {
	return corpus.NewSegmentWriter[solver.CacheEntry](s.SegmentStore, opts, &entryCodec{})
}

// entryCodec packs entries into blocks. A block's entries are sorted by
// digest before encoding, so every sealed block is internally ordered (the
// verifier's digest-ordering check).
type entryCodec struct {
	pending  []solver.CacheEntry // entries of the block being accumulated
	pendSize int                 // rough encoded size of pending
	buf      []byte
	blocks   []blockIndex
	entries  int // entries in the current segment
}

func (c *entryCodec) Reset() {
	c.pending, c.pendSize = c.pending[:0], 0
	c.blocks, c.entries = nil, 0
}

func (c *entryCodec) Add(e solver.CacheEntry) int {
	c.pending = append(c.pending, e)
	// Cheap size estimate: fixed header + per-constraint + per-term costs.
	c.pendSize += 40 + len(e.Cons)*16 + e.Model.Len()*12
	for _, con := range e.Cons {
		c.pendSize += len(con.E.Terms) * 12
	}
	return c.pendSize
}

func (c *entryCodec) Pending() []byte {
	sort.Slice(c.pending, func(i, j int) bool { return digestLess(&c.pending[i], &c.pending[j]) })
	c.buf = c.buf[:0]
	for i := range c.pending {
		c.buf = appendEntry(c.buf, &c.pending[i])
	}
	return c.buf
}

func (c *entryCodec) Framed(f corpus.BlockFrame) {
	c.blocks = append(c.blocks, blockIndex{
		BlockFrame: f,
		Entries:    len(c.pending),
		MinSum:     c.pending[0].Digest.Sum,
		MaxSum:     c.pending[len(c.pending)-1].Digest.Sum,
	})
	c.entries += len(c.pending)
	c.pending, c.pendSize = c.pending[:0], 0
}

func (c *entryCodec) Footer(program string) ([]byte, corpus.SegmentInfo, error) {
	blob, err := json.Marshal(&segFooter{Program: program, Entries: c.entries, Blocks: c.blocks})
	return blob, corpus.SegmentInfo{Entries: c.entries}, err
}
