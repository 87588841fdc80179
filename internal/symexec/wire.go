package symexec

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/solver"
	"repro/internal/symexec/snapshot"
	"repro/internal/trace"
)

// Wire codecs for the executor's own types: input specs, values, states,
// and vulnerabilities. They live in this package (not snapshot) because
// they reach private State/registry fields; snapshot supplies the byte
// primitives and the codecs for the dependency-free types.
//
// State encoding uses two side tables built in a deterministic walk order:
// symbolic-string identities and buffer identities are emitted once and
// referenced by ordinal afterwards, so aliasing (two locals naming the same
// buffer, the registry and a frame sharing a string) survives the round
// trip. Copy-on-write sharing between states, by contrast, is an in-process
// optimization, not semantics — each decoded state owns private frames,
// maps, and chunk storage.

// EncodeSpec writes an input spec (nil allowed).
func EncodeSpec(w *snapshot.Writer, s *InputSpec) {
	if s == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Varint(s.MaxStrLen)
	snapshot.EncodeIntMap(w, s.StrLenMax)
	w.Varint(s.IntMin)
	w.Varint(s.IntMax)
	snapshot.EncodeIntMap(w, s.ConcreteInts)
	snapshot.EncodeStrMap(w, s.ConcreteStrs)
	snapshot.EncodeStrMap(w, s.ConcreteEnv)
	w.Int(s.NArgs)
	idxs := make([]int, 0, len(s.ConcreteArgs))
	for i := range s.ConcreteArgs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	w.Int(len(idxs))
	for _, i := range idxs {
		w.Int(i)
		w.String(s.ConcreteArgs[i])
	}
	snapshot.EncodeInput(w, s.SeedInput)
}

// DecodeSpec reads an input spec (nil when absent).
func DecodeSpec(r *snapshot.Reader) (*InputSpec, error) {
	present, err := r.Bool()
	if err != nil || !present {
		return nil, err
	}
	s := &InputSpec{}
	if s.MaxStrLen, err = r.Varint(); err != nil {
		return nil, err
	}
	if s.StrLenMax, err = snapshot.DecodeIntMap(r); err != nil {
		return nil, err
	}
	if s.IntMin, err = r.Varint(); err != nil {
		return nil, err
	}
	if s.IntMax, err = r.Varint(); err != nil {
		return nil, err
	}
	if s.ConcreteInts, err = snapshot.DecodeIntMap(r); err != nil {
		return nil, err
	}
	if s.ConcreteStrs, err = snapshot.DecodeStrMap(r); err != nil {
		return nil, err
	}
	if s.ConcreteEnv, err = snapshot.DecodeStrMap(r); err != nil {
		return nil, err
	}
	if s.NArgs, err = r.Int(); err != nil {
		return nil, err
	}
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("symexec: concrete-arg count %d out of range", n)
	}
	s.ConcreteArgs = make(map[int]string, n)
	for i := 0; i < n; i++ {
		idx, err := r.Int()
		if err != nil {
			return nil, err
		}
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		s.ConcreteArgs[idx] = v
	}
	if s.SeedInput, err = snapshot.DecodeInput(r); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeVulnerability writes a verified vulnerability (nil allowed).
func EncodeVulnerability(w *snapshot.Writer, v *Vulnerability) {
	if v == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Int(int(v.Kind))
	w.Sym(v.Func)
	snapshot.EncodePos(w, v.Pos)
	w.Int(len(v.Path))
	for _, l := range v.Path {
		snapshot.EncodeLocation(w, l)
	}
	snapshot.EncodeConstraints(w, v.Constraints)
	snapshot.EncodeModel(w, v.Model)
	snapshot.EncodeInput(w, v.Witness)
}

// DecodeVulnerability reads a vulnerability (nil when absent).
func DecodeVulnerability(r *snapshot.Reader) (*Vulnerability, error) {
	present, err := r.Bool()
	if err != nil || !present {
		return nil, err
	}
	v := &Vulnerability{}
	kind, err := r.Int()
	if err != nil {
		return nil, err
	}
	v.Kind = interp.FaultKind(kind)
	if v.Func, err = r.Sym(); err != nil {
		return nil, err
	}
	if v.Pos, err = snapshot.DecodePos(r); err != nil {
		return nil, err
	}
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("symexec: path length %d out of range", n)
	}
	if n > 0 {
		v.Path = make([]trace.Location, n)
		for i := range v.Path {
			if v.Path[i], err = snapshot.DecodeLocation(r); err != nil {
				return nil, err
			}
		}
	}
	if v.Constraints, err = snapshot.DecodeConstraints(r); err != nil {
		return nil, err
	}
	if v.Model, err = snapshot.DecodeModel(r); err != nil {
		return nil, err
	}
	if v.Witness, err = snapshot.DecodeInput(r); err != nil {
		return nil, err
	}
	return v, nil
}

// stateEncoder assigns ordinals to string and buffer identities as they are
// first encountered, emitting each identity's payload inline at that point.
// The decoder mirrors the walk, so references always resolve.
type stateEncoder struct {
	w    *snapshot.Writer
	strs map[*SymString]int
	bufs map[*SymBuffer]int
}

func newStateEncoder(w *snapshot.Writer) *stateEncoder {
	return &stateEncoder{w: w, strs: make(map[*SymString]int), bufs: make(map[*SymBuffer]int)}
}

// symStr emits a string reference: the ordinal for known identities, or the
// next ordinal plus the full record on first encounter.
func (e *stateEncoder) symStr(s *SymString) {
	if id, ok := e.strs[s]; ok {
		e.w.Uvarint(uint64(id))
		return
	}
	id := len(e.strs)
	e.strs[s] = id
	e.w.Uvarint(uint64(id))
	e.w.Bool(s.IsLit)
	e.w.String(s.Lit)
	e.w.Int(s.ID)
	e.w.Sym(s.Label)
	e.w.Varint(int64(s.LenVar))
	e.w.Varint(int64(s.ByteBase))
	e.w.Int(int(s.ByteStride))
	e.w.Int(s.ByteLen)
}

// symBuf emits a buffer reference the same way.
func (e *stateEncoder) symBuf(b *SymBuffer) {
	if id, ok := e.bufs[b]; ok {
		e.w.Uvarint(uint64(id))
		return
	}
	id := len(e.bufs)
	e.bufs[b] = id
	e.w.Uvarint(uint64(id))
	e.w.Int(b.Cap)
}

// Value tags.
const (
	tagZero byte = iota // the zero Value (an unwritten local slot)
	tagInt
	tagCond
	tagStr
	tagBuf
)

func (e *stateEncoder) value(v Value) {
	switch {
	case v.Kind == KindInt && v.IsCond:
		e.w.Byte(tagCond)
		snapshot.EncodeConstraint(e.w, v.Cond)
	case v.Kind == KindInt:
		e.w.Byte(tagInt)
		snapshot.EncodeLinExpr(e.w, v.Lin)
	case v.Kind == KindString:
		e.w.Byte(tagStr)
		e.symStr(v.Str)
	case v.Kind == KindBuf:
		e.w.Byte(tagBuf)
		e.symBuf(v.Buf)
	default:
		e.w.Byte(tagZero)
	}
}

func (e *stateEncoder) values(vs []Value) {
	e.w.Int(len(vs))
	for _, v := range vs {
		e.value(v)
	}
}

// state emits one complete state. Buffer heap storage is emitted for every
// buffer identity reachable from the state's frames and globals; chunks
// untouched in this state stay implicit (they read as zero).
func (e *stateEncoder) state(st *State, prog progIndex) error {
	w := e.w
	w.Int(st.ID)
	w.Int(int(st.Status))
	w.Int(st.seq)
	w.Int(st.Depth)
	w.Int(st.PathIndex)
	w.Int(st.Diverted)
	w.Bool(st.Revived)
	w.Int(len(st.Frames))
	for _, fr := range st.Frames {
		idx, ok := prog[fr.Fn]
		if !ok {
			return fmt.Errorf("symexec: frame function %q not in program", fr.Fn.Name)
		}
		w.Int(idx)
		w.Int(fr.PC)
		e.values(fr.Locals)
		e.values(fr.Stack)
	}
	e.values(st.Globals)
	snapshot.EncodeConstraints(w, st.Constraints())
	tr := st.Trace()
	w.Int(len(tr))
	for _, l := range tr {
		snapshot.EncodeLocation(w, l)
	}
	snapshot.EncodeModel(w, st.LastModel)

	// Heap: entries for reachable buffers only (an identity that no frame,
	// stack slot, or global can reach anymore cannot influence execution).
	type heapEnt struct {
		ord   int
		buf   *SymBuffer
		cells *bufCells
	}
	var ents []heapEnt
	for b, ord := range e.bufs {
		if c := st.heap[b]; c != nil {
			ents = append(ents, heapEnt{ord: ord, buf: b, cells: c})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ord < ents[j].ord })
	w.Int(len(ents))
	for _, ent := range ents {
		w.Int(ent.ord)
		w.Bool(ent.cells.smeared)
		// Each written chunk goes out whole, unwritten cells as zeroes.
		touched := 0
		for _, ch := range ent.cells.cells.chunks {
			if ch != nil {
				touched++
			}
		}
		w.Int((ent.buf.Cap + cellChunkMask) >> cellChunkShift)
		w.Int(touched)
		for ci, ch := range ent.cells.cells.chunks {
			if ch == nil {
				continue
			}
			w.Int(ci)
			for k := 0; k < cellChunkSize; k++ {
				e.value(st.bufCell(ent.buf, ci<<cellChunkShift|k))
			}
		}
	}
	return nil
}

// progIndex maps function pointers back to their program index.
type progIndex map[*bytecode.Fn]int

// stateDecoder mirrors stateEncoder.
type stateDecoder struct {
	r    *snapshot.Reader
	strs []*SymString
	bufs []*SymBuffer
}

func newStateDecoder(r *snapshot.Reader) *stateDecoder {
	return &stateDecoder{r: r}
}

func (d *stateDecoder) symStr() (*SymString, error) {
	id, err := d.r.Uvarint()
	if err != nil {
		return nil, err
	}
	if id < uint64(len(d.strs)) {
		return d.strs[id], nil
	}
	if id != uint64(len(d.strs)) {
		return nil, fmt.Errorf("symexec: string ordinal %d out of order", id)
	}
	s := &SymString{}
	if s.IsLit, err = d.r.Bool(); err != nil {
		return nil, err
	}
	if s.Lit, err = d.r.String(); err != nil {
		return nil, err
	}
	if s.ID, err = d.r.Int(); err != nil {
		return nil, err
	}
	if s.Label, err = d.r.Sym(); err != nil {
		return nil, err
	}
	lv, err := d.r.Varint()
	if err != nil {
		return nil, err
	}
	s.LenVar = solver.Var(lv)
	bb, err := d.r.Varint()
	if err != nil {
		return nil, err
	}
	s.ByteBase = solver.Var(bb)
	bs, err := d.r.Int()
	if err != nil {
		return nil, err
	}
	s.ByteStride = int32(bs)
	if s.ByteLen, err = d.r.Int(); err != nil {
		return nil, err
	}
	d.strs = append(d.strs, s)
	return s, nil
}

func (d *stateDecoder) symBuf() (*SymBuffer, error) {
	id, err := d.r.Uvarint()
	if err != nil {
		return nil, err
	}
	if id < uint64(len(d.bufs)) {
		return d.bufs[id], nil
	}
	if id != uint64(len(d.bufs)) {
		return nil, fmt.Errorf("symexec: buffer ordinal %d out of order", id)
	}
	capacity, err := d.r.Int()
	if err != nil {
		return nil, err
	}
	if capacity < 0 || capacity > 1<<24 {
		return nil, fmt.Errorf("symexec: buffer capacity %d out of range", capacity)
	}
	b := &SymBuffer{Cap: capacity}
	d.bufs = append(d.bufs, b)
	return b, nil
}

func (d *stateDecoder) value() (Value, error) {
	tag, err := d.r.Byte()
	if err != nil {
		return Value{}, err
	}
	switch tag {
	case tagZero:
		return Value{}, nil
	case tagInt:
		e, err := snapshot.DecodeLinExpr(d.r)
		if err != nil {
			return Value{}, err
		}
		return LinVal(e), nil
	case tagCond:
		c, err := snapshot.DecodeConstraint(d.r)
		if err != nil {
			return Value{}, err
		}
		return CondVal(c), nil
	case tagStr:
		s, err := d.symStr()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindString, Str: s}, nil
	case tagBuf:
		b, err := d.symBuf()
		if err != nil {
			return Value{}, err
		}
		return BufVal(b), nil
	default:
		return Value{}, fmt.Errorf("symexec: unknown value tag %d", tag)
	}
}

func (d *stateDecoder) values() ([]Value, error) {
	n, err := d.r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > d.r.Len() {
		return nil, fmt.Errorf("symexec: value count %d out of range", n)
	}
	if n == 0 {
		return nil, nil
	}
	vs := make([]Value, n)
	for i := range vs {
		if vs[i], err = d.value(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// state reads one state, rebuilding the derived path-condition bookkeeping
// (variable sets, interval bounds, rolling digest) from the constraint
// list — the compaction invariant guarantees the replay reproduces the
// incremental values exactly.
func (d *stateDecoder) state(funcs []*bytecode.Fn) (*State, error) {
	r := d.r
	st := &State{}
	var err error
	if st.ID, err = r.Int(); err != nil {
		return nil, err
	}
	status, err := r.Int()
	if err != nil {
		return nil, err
	}
	st.Status = StateStatus(status)
	if st.seq, err = r.Int(); err != nil {
		return nil, err
	}
	if st.Depth, err = r.Int(); err != nil {
		return nil, err
	}
	if st.PathIndex, err = r.Int(); err != nil {
		return nil, err
	}
	if st.Diverted, err = r.Int(); err != nil {
		return nil, err
	}
	if st.Revived, err = r.Bool(); err != nil {
		return nil, err
	}
	nframes, err := r.Int()
	if err != nil {
		return nil, err
	}
	if nframes < 0 || nframes > r.Len() {
		return nil, fmt.Errorf("symexec: frame count %d out of range", nframes)
	}
	st.Frames = make([]*Frame, nframes)
	for i := range st.Frames {
		fnIdx, err := r.Int()
		if err != nil {
			return nil, err
		}
		if fnIdx < 0 || fnIdx >= len(funcs) {
			return nil, fmt.Errorf("symexec: frame function index %d out of range", fnIdx)
		}
		fr := &Frame{Fn: funcs[fnIdx]}
		if fr.PC, err = r.Int(); err != nil {
			return nil, err
		}
		if fr.Locals, err = d.values(); err != nil {
			return nil, err
		}
		if fr.Stack, err = d.values(); err != nil {
			return nil, err
		}
		st.Frames[i] = fr
	}
	if st.Globals, err = d.values(); err != nil {
		return nil, err
	}
	cons, err := snapshot.DecodeConstraints(r)
	if err != nil {
		return nil, err
	}
	ntrace, err := r.Int()
	if err != nil {
		return nil, err
	}
	if ntrace < 0 || ntrace > r.Len() {
		return nil, fmt.Errorf("symexec: trace length %d out of range", ntrace)
	}
	for i := 0; i < ntrace; i++ {
		loc, err := snapshot.DecodeLocation(r)
		if err != nil {
			return nil, err
		}
		p, tok := st.pathForWrite()
		p.trace.push(tok, loc)
	}
	if st.LastModel, err = snapshot.DecodeModel(r); err != nil {
		return nil, err
	}
	nheap, err := r.Int()
	if err != nil {
		return nil, err
	}
	if nheap < 0 || nheap > r.Len() {
		return nil, fmt.Errorf("symexec: heap entry count %d out of range", nheap)
	}
	if nheap > 0 {
		st.heap = make(map[*SymBuffer]*bufCells, nheap)
	}
	for i := 0; i < nheap; i++ {
		ord, err := r.Int()
		if err != nil {
			return nil, err
		}
		if ord < 0 || ord >= len(d.bufs) {
			return nil, fmt.Errorf("symexec: heap buffer ordinal %d out of range", ord)
		}
		b := d.bufs[ord]
		c := &bufCells{owner: st.owner()}
		if c.smeared, err = r.Bool(); err != nil {
			return nil, err
		}
		nchunks, err := r.Int()
		if err != nil {
			return nil, err
		}
		if nchunks < 0 || nchunks != (b.Cap+cellChunkMask)>>cellChunkShift {
			return nil, fmt.Errorf("symexec: chunk index size %d inconsistent with capacity %d", nchunks, b.Cap)
		}
		touched, err := r.Int()
		if err != nil {
			return nil, err
		}
		if touched < 0 || touched > nchunks {
			return nil, fmt.Errorf("symexec: touched chunk count %d out of range", touched)
		}
		for j := 0; j < touched; j++ {
			ci, err := r.Int()
			if err != nil {
				return nil, err
			}
			if ci < 0 || ci >= nchunks {
				return nil, fmt.Errorf("symexec: chunk index %d out of range", ci)
			}
			for k := 0; k < cellChunkSize; k++ {
				v, err := d.value()
				if err != nil {
					return nil, err
				}
				c.cells.set(c.owner, ci<<cellChunkShift|k, v)
			}
		}
		st.heap[b] = c
	}
	// Rebuild the components, variable index and digest: the path
	// condition is stored already compacted, so each constraint is added
	// as is.
	for _, c := range cons {
		p, tok := st.pathForWrite()
		p.pc.add(tok, c)
	}
	return st, nil
}
