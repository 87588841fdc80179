package snapshot

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/pathid"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Codecs for the wire-crossing value types: the compiled program, candidate
// paths (with their statistical predicates), solver terms, and concrete
// inputs. Each Encode/Decode pair round-trips exactly; decoders validate
// structural invariants (index ranges, lengths) so a corrupt payload fails
// with an error instead of producing an inconsistent value.

// EncodeProgram writes a compiled program.
func EncodeProgram(w *Writer, p *bytecode.Program) {
	w.String(p.Name)
	w.Int(len(p.Globals))
	for _, g := range p.Globals {
		w.Sym(g.Name)
		w.Int(int(g.Type))
	}
	w.Int(len(p.Funcs))
	for _, fn := range p.Funcs {
		w.Sym(fn.Name)
		w.Int(len(fn.ParamNames))
		for i, pn := range fn.ParamNames {
			w.Sym(pn)
			w.Int(int(fn.ParamTypes[i]))
		}
		w.Int(int(fn.Ret))
		w.Int(fn.NumLocals)
		w.Int(len(fn.Code))
		for _, in := range fn.Code {
			w.Byte(byte(in.Op))
			w.Int(in.A)
			w.Int(in.B)
			w.Varint(in.Imm)
			w.Sym(in.Str)
			EncodePos(w, in.Pos)
		}
	}
	w.Int(p.InitIndex)
	w.Int(p.MainIndex)
}

// DecodeProgram reads a compiled program and rebuilds its indexes.
func DecodeProgram(r *Reader) (*bytecode.Program, error) {
	name, err := r.String()
	if err != nil {
		return nil, err
	}
	nglobals, err := r.Int()
	if err != nil {
		return nil, err
	}
	if nglobals < 0 || nglobals > r.Len() {
		return nil, fmt.Errorf("snapshot: global count %d out of range", nglobals)
	}
	globals := make([]bytecode.GlobalInfo, nglobals)
	for i := range globals {
		if globals[i].Name, err = r.Sym(); err != nil {
			return nil, err
		}
		t, err := r.Int()
		if err != nil {
			return nil, err
		}
		globals[i].Type = minic.Type(t)
	}
	nfuncs, err := r.Int()
	if err != nil {
		return nil, err
	}
	if nfuncs < 0 || nfuncs > r.Len() {
		return nil, fmt.Errorf("snapshot: function count %d out of range", nfuncs)
	}
	funcs := make([]*bytecode.Fn, nfuncs)
	for i := range funcs {
		fn := &bytecode.Fn{Index: i}
		if fn.Name, err = r.Sym(); err != nil {
			return nil, err
		}
		nparams, err := r.Int()
		if err != nil {
			return nil, err
		}
		if nparams < 0 || nparams > r.Len() {
			return nil, fmt.Errorf("snapshot: param count %d out of range", nparams)
		}
		for j := 0; j < nparams; j++ {
			pn, err := r.Sym()
			if err != nil {
				return nil, err
			}
			pt, err := r.Int()
			if err != nil {
				return nil, err
			}
			fn.ParamNames = append(fn.ParamNames, pn)
			fn.ParamTypes = append(fn.ParamTypes, minic.Type(pt))
		}
		ret, err := r.Int()
		if err != nil {
			return nil, err
		}
		fn.Ret = minic.Type(ret)
		if fn.NumLocals, err = r.Int(); err != nil {
			return nil, err
		}
		ncode, err := r.Int()
		if err != nil {
			return nil, err
		}
		if ncode < 0 || ncode > r.Len() {
			return nil, fmt.Errorf("snapshot: code length %d out of range", ncode)
		}
		fn.Code = make([]bytecode.Instr, ncode)
		for j := range fn.Code {
			op, err := r.Byte()
			if err != nil {
				return nil, err
			}
			in := bytecode.Instr{Op: bytecode.Op(op)}
			if in.A, err = r.Int(); err != nil {
				return nil, err
			}
			if in.B, err = r.Int(); err != nil {
				return nil, err
			}
			if in.Imm, err = r.Varint(); err != nil {
				return nil, err
			}
			if in.Str, err = r.Sym(); err != nil {
				return nil, err
			}
			if in.Pos, err = DecodePos(r); err != nil {
				return nil, err
			}
			fn.Code[j] = in
		}
		funcs[i] = fn
	}
	initIdx, err := r.Int()
	if err != nil {
		return nil, err
	}
	mainIdx, err := r.Int()
	if err != nil {
		return nil, err
	}
	return bytecode.Assemble(name, funcs, globals, initIdx, mainIdx)
}

// EncodePos writes a source position.
func EncodePos(w *Writer, p minic.Pos) {
	w.Int(p.Line)
	w.Int(p.Col)
}

// DecodePos reads a source position.
func DecodePos(r *Reader) (minic.Pos, error) {
	line, err := r.Int()
	if err != nil {
		return minic.Pos{}, err
	}
	col, err := r.Int()
	if err != nil {
		return minic.Pos{}, err
	}
	return minic.Pos{Line: line, Col: col}, nil
}

// EncodeLocation writes an instrumentation location.
func EncodeLocation(w *Writer, l trace.Location) {
	w.Sym(l.Func)
	w.Int(int(l.Kind))
}

// DecodeLocation reads an instrumentation location.
func DecodeLocation(r *Reader) (trace.Location, error) {
	fn, err := r.Sym()
	if err != nil {
		return trace.Location{}, err
	}
	k, err := r.Int()
	if err != nil {
		return trace.Location{}, err
	}
	return trace.Location{Func: fn, Kind: trace.EventKind(k)}, nil
}

// EncodePredicate writes one statistical predicate (nil allowed).
func EncodePredicate(w *Writer, p *stats.Predicate) {
	if p == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	EncodeLocation(w, p.Loc)
	w.Sym(p.Var)
	w.Int(int(p.Class))
	w.Bool(p.IsString)
	w.Int(int(p.Op))
	w.Float(p.Threshold)
	w.Float(p.Score)
	w.Int(p.Err)
	w.Int(p.CountC)
	w.Int(p.CountF)
}

// DecodePredicate reads one statistical predicate (nil when absent).
func DecodePredicate(r *Reader) (*stats.Predicate, error) {
	present, err := r.Bool()
	if err != nil || !present {
		return nil, err
	}
	p := &stats.Predicate{}
	if p.Loc, err = DecodeLocation(r); err != nil {
		return nil, err
	}
	if p.Var, err = r.Sym(); err != nil {
		return nil, err
	}
	cls, err := r.Int()
	if err != nil {
		return nil, err
	}
	p.Class = trace.VarClass(cls)
	if p.IsString, err = r.Bool(); err != nil {
		return nil, err
	}
	op, err := r.Int()
	if err != nil {
		return nil, err
	}
	p.Op = stats.PredOp(op)
	if p.Threshold, err = r.Float(); err != nil {
		return nil, err
	}
	if p.Score, err = r.Float(); err != nil {
		return nil, err
	}
	if p.Err, err = r.Int(); err != nil {
		return nil, err
	}
	if p.CountC, err = r.Int(); err != nil {
		return nil, err
	}
	if p.CountF, err = r.Int(); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodeCandidate writes one ranked candidate path.
func EncodeCandidate(w *Writer, c *pathid.CandidatePath) {
	w.Int(len(c.Nodes))
	for _, n := range c.Nodes {
		EncodeLocation(w, n.Loc)
		EncodePredicate(w, n.Pred)
	}
	w.Float(c.AvgScore)
	w.Int(c.Detours)
}

// DecodeCandidate reads one ranked candidate path.
func DecodeCandidate(r *Reader) (*pathid.CandidatePath, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("snapshot: candidate node count %d out of range", n)
	}
	c := &pathid.CandidatePath{Nodes: make([]pathid.PathNode, n)}
	for i := range c.Nodes {
		if c.Nodes[i].Loc, err = DecodeLocation(r); err != nil {
			return nil, err
		}
		if c.Nodes[i].Pred, err = DecodePredicate(r); err != nil {
			return nil, err
		}
	}
	if c.AvgScore, err = r.Float(); err != nil {
		return nil, err
	}
	if c.Detours, err = r.Int(); err != nil {
		return nil, err
	}
	return c, nil
}

// EncodeLinExpr writes a linear expression.
func EncodeLinExpr(w *Writer, e solver.LinExpr) {
	w.Int(len(e.Terms))
	for _, t := range e.Terms {
		w.Varint(t.Coeff)
		w.Varint(int64(t.Var))
	}
	w.Varint(e.Const)
}

// DecodeLinExpr reads a linear expression.
func DecodeLinExpr(r *Reader) (solver.LinExpr, error) {
	n, err := r.Int()
	if err != nil {
		return solver.LinExpr{}, err
	}
	if n < 0 || n > r.Len() {
		return solver.LinExpr{}, fmt.Errorf("snapshot: term count %d out of range", n)
	}
	var e solver.LinExpr
	if n > 0 {
		e.Terms = make([]solver.Term, n)
		for i := range e.Terms {
			if e.Terms[i].Coeff, err = r.Varint(); err != nil {
				return solver.LinExpr{}, err
			}
			v, err := r.Varint()
			if err != nil {
				return solver.LinExpr{}, err
			}
			e.Terms[i].Var = solver.Var(v)
		}
	}
	if e.Const, err = r.Varint(); err != nil {
		return solver.LinExpr{}, err
	}
	return e, nil
}

// EncodeConstraint writes one constraint.
func EncodeConstraint(w *Writer, c solver.Constraint) {
	w.Byte(byte(c.Op))
	EncodeLinExpr(w, c.E)
}

// DecodeConstraint reads one constraint.
func DecodeConstraint(r *Reader) (solver.Constraint, error) {
	op, err := r.Byte()
	if err != nil {
		return solver.Constraint{}, err
	}
	e, err := DecodeLinExpr(r)
	if err != nil {
		return solver.Constraint{}, err
	}
	return solver.Constraint{Op: solver.ConstraintOp(op), E: e}, nil
}

// EncodeConstraints writes a constraint slice.
func EncodeConstraints(w *Writer, cons []solver.Constraint) {
	w.Int(len(cons))
	for _, c := range cons {
		EncodeConstraint(w, c)
	}
}

// DecodeConstraints reads a constraint slice.
func DecodeConstraints(r *Reader) ([]solver.Constraint, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("snapshot: constraint count %d out of range", n)
	}
	if n == 0 {
		return nil, nil
	}
	cons := make([]solver.Constraint, n)
	for i := range cons {
		if cons[i], err = DecodeConstraint(r); err != nil {
			return nil, err
		}
	}
	return cons, nil
}

// EncodeModel writes a model in ascending variable order (nil allowed).
func EncodeModel(w *Writer, m *solver.Model) {
	if m == nil {
		w.Varint(-1)
		return
	}
	w.Varint(int64(m.Len()))
	m.Range(func(v solver.Var, x int64) bool {
		w.Varint(int64(v))
		w.Varint(x)
		return true
	})
}

// DecodeModel reads a model (nil when encoded as nil).
func DecodeModel(r *Reader) (*solver.Model, error) {
	n, err := r.Varint()
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, nil
	}
	if n > int64(r.Len()) {
		return nil, fmt.Errorf("snapshot: model size %d out of range", n)
	}
	var m solver.ModelBuilder
	for i := int64(0); i < n; i++ {
		v, err := r.Varint()
		if err != nil {
			return nil, err
		}
		val, err := r.Varint()
		if err != nil {
			return nil, err
		}
		m.Set(solver.Var(v), val)
	}
	return m.Model(), nil
}

// EncodeInput writes a concrete program input (nil allowed).
func EncodeInput(w *Writer, in *interp.Input) {
	if in == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	EncodeIntMap(w, in.Ints)
	EncodeStrMap(w, in.Strs)
	EncodeStrMap(w, in.Env)
	w.Int(len(in.Args))
	for _, a := range in.Args {
		w.String(a)
	}
}

// DecodeInput reads a concrete program input (nil when absent).
func DecodeInput(r *Reader) (*interp.Input, error) {
	present, err := r.Bool()
	if err != nil || !present {
		return nil, err
	}
	in := &interp.Input{}
	if in.Ints, err = DecodeIntMap(r); err != nil {
		return nil, err
	}
	if in.Strs, err = DecodeStrMap(r); err != nil {
		return nil, err
	}
	if in.Env, err = DecodeStrMap(r); err != nil {
		return nil, err
	}
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("snapshot: arg count %d out of range", n)
	}
	for i := 0; i < n; i++ {
		a, err := r.String()
		if err != nil {
			return nil, err
		}
		in.Args = append(in.Args, a)
	}
	return in, nil
}

// EncodeIntMap writes a string-to-int64 map in sorted key order.
func EncodeIntMap(w *Writer, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Sym(k)
		w.Varint(m[k])
	}
}

// DecodeIntMap reads a string-to-int64 map.
func DecodeIntMap(r *Reader) (map[string]int64, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("snapshot: map size %d out of range", n)
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k, err := r.Sym()
		if err != nil {
			return nil, err
		}
		v, err := r.Varint()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// EncodeStrMap writes a string-to-string map in sorted key order.
func EncodeStrMap(w *Writer, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Sym(k)
		w.String(m[k])
	}
}

// DecodeStrMap reads a string-to-string map.
func DecodeStrMap(r *Reader) (map[string]string, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("snapshot: map size %d out of range", n)
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, err := r.Sym()
		if err != nil {
			return nil, err
		}
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}
