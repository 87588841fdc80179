// Package symexec is the symbolic execution engine of the reproduction —
// the stand-in for KLEE. It interprets the same bytecode as the concrete VM
// but over symbolic values: integers are linear expressions over solver
// variables, strings carry symbolic lengths and lazily materialized byte
// variables (the paper's string-length workaround, §VI footnote 2), and
// branches on symbolic conditions fork states whose feasibility the solver
// checks.
//
// The executor detects vulnerabilities by satisfiability queries: a buffer
// write whose index can reach the capacity, a failable assertion, a
// reachable abort, or a possible division by zero. On detection it emits
// the full path (the sequence of function entry/exit locations), the path
// constraints, and a concrete witness input.
package symexec

import (
	"fmt"

	"repro/internal/solver"
)

// ValueKind is the dynamic type of a symbolic value.
type ValueKind int

// Value kinds.
const (
	KindInt ValueKind = iota + 1
	KindString
	KindBuf
)

// Value is a runtime value of the symbolic machine.
//
// Integers have two encodings:
//   - a linear expression (Lin) over solver variables — concrete integers
//     are constant expressions;
//   - a deferred comparison (Cond set, IsCond true), representing the 0/1
//     outcome of a comparison whose operands were symbolic. Conditions are
//     consumed by branch instructions (where they fork states) or
//     concretized on demand.
type Value struct {
	Kind ValueKind

	// Integer payload.
	Lin    solver.LinExpr
	Cond   solver.Constraint
	IsCond bool

	// String payload.
	Str *SymString

	// Buffer payload.
	Buf *SymBuffer
}

// IntVal returns a concrete integer value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Lin: solver.ConstExpr(v)} }

// LinVal wraps a linear expression as an integer value.
func LinVal(e solver.LinExpr) Value { return Value{Kind: KindInt, Lin: e} }

// CondVal wraps a deferred comparison outcome (1 when c holds, else 0).
func CondVal(c solver.Constraint) Value { return Value{Kind: KindInt, Cond: c, IsCond: true} }

// StrVal returns a concrete string value.
func StrVal(s string) Value {
	return Value{Kind: KindString, Str: &SymString{Lit: s, IsLit: true}}
}

// SymStrVal wraps a symbolic string.
func SymStrVal(s *SymString) Value { return Value{Kind: KindString, Str: s} }

// BufVal wraps a buffer.
func BufVal(b *SymBuffer) Value { return Value{Kind: KindBuf, Buf: b} }

// IsConcreteInt reports whether the value is an integer with a known
// constant.
func (v Value) IsConcreteInt() (int64, bool) {
	if v.Kind != KindInt || v.IsCond || !v.Lin.IsConst() {
		return 0, false
	}
	return v.Lin.Const, true
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		if v.IsCond {
			return fmt.Sprintf("cond(%s)", v.Cond.String(nil))
		}
		return v.Lin.String(nil)
	case KindString:
		return v.Str.Describe()
	case KindBuf:
		return fmt.Sprintf("buf[%d]", v.Buf.Cap)
	default:
		return "<invalid>"
	}
}

// SymString is a (possibly symbolic) string. Concrete strings set IsLit.
// Symbolic strings are identified by ID; their length is the solver
// variable LenVar and their bytes are materialized lazily through the
// executor's byte registry, so a given (string, index) pair always maps to
// the same solver variable in every state.
type SymString struct {
	IsLit bool
	Lit   string

	ID     int
	Label  string
	LenVar solver.Var

	// ByteBase/ByteStride describe a pre-reserved block of byte variables:
	// byte i is solver.Var(ByteBase + ByteStride*i) for i < ByteLen, with
	// metadata (bounds [0,255], name "label[i]") carried by the block's
	// range record in the variable table. Blocks make byte variable IDs
	// independent of which worker touches a byte first under parallel
	// frontier execution. ByteStride == 0 means no block was reserved and
	// bytes go through the executor's lazy map (the width-1 path).
	ByteBase   solver.Var
	ByteStride int32
	ByteLen    int
}

// LenExpr returns the string's length as a linear expression.
func (s *SymString) LenExpr() solver.LinExpr {
	if s.IsLit {
		return solver.ConstExpr(int64(len(s.Lit)))
	}
	return solver.VarExpr(s.LenVar)
}

// Describe renders the string for diagnostics.
func (s *SymString) Describe() string {
	if s.IsLit {
		return fmt.Sprintf("%q", s.Lit)
	}
	return fmt.Sprintf("sym-str(%s#%d)", s.Label, s.ID)
}

// SymBuffer is the identity of a fixed-capacity buffer of integer cells.
// Capacities are always concrete (buffer sizes are declaration literals).
// The cell contents live in the owning State's heap (see State.bufCells):
// keeping the identity separate from the storage is what lets forked
// states share buffer contents copy-on-write while aliases within one
// state (the same buffer reachable through a local and the operand stack)
// keep observing each other's writes.
type SymBuffer struct {
	Cap int
}

// NewSymBuffer allocates a buffer identity. A buffer with no heap entry
// reads as all zeroes and not smeared, so a fresh buffer needs no storage
// until first written.
func NewSymBuffer(capacity int) *SymBuffer {
	return &SymBuffer{Cap: capacity}
}

// Buffer cells, like path conditions, are stored in cowVec windows of 32
// so a post-fork write copies one chunk, not the whole buffer — the
// difference between O(cap) and O(1) per write in fork-heavy loops.
const (
	cellChunkShift = 5 // 32 cells per chunk
	cellChunkSize  = 1 << cellChunkShift
	cellChunkMask  = cellChunkSize - 1
)

// ownerToken is an ownership token for a state's copy-on-write storage:
// heap headers, the path store, cowVec chunks and components.
// Each state holds (at most) one current token; storage stamped with it
// may be mutated in place by that state. Forking replaces both sides'
// tokens, so every piece of storage stamped with an older token is frozen
// — an O(1) revocation that needs no walk over the storage and no atomics:
// the only writes a fork performs are to the two states' private token
// fields.
type ownerToken struct{ _ byte }

// bufCells is the storage of one buffer within one state's heap, owned by
// the state whose token it carries. Its cells share frozen chunks with
// related states; a cell never written holds the zero Value and reads as
// IntVal(0), so untouched windows of a buffer never materialize.
type bufCells struct {
	owner *ownerToken
	cells cowVec[Value]
	// smeared marks buffers written through a symbolic index: individual
	// cell contents are no longer tracked precisely, and reads return
	// fresh unconstrained values.
	smeared bool
}
