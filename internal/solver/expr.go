// Package solver implements a decision procedure for conjunctions of linear
// integer constraints, playing the role STP plays for KLEE in the paper.
// Path conditions produced by the symbolic executor — branch outcomes,
// buffer-bound queries, and the statistical module's threshold predicates —
// are all conjunctions of linear (in)equalities over symbolic integers and
// string-length variables, which is exactly the fragment this solver
// decides.
//
// The procedure layers three engines:
//
//  1. interval (bounds) propagation to a fixpoint,
//  2. Fourier–Motzkin elimination for rational infeasibility proofs,
//  3. branch-and-propagate integer model search (with disequality
//     splitting).
//
// It answers Sat (with a model), Unsat, or Unknown (resource budget hit).
package solver

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Var identifies a solver variable. Variables are created through a VarTable
// so they carry names (for diagnostics and witness extraction) and intrinsic
// bounds (e.g. string lengths are non-negative, bytes are 0..255).
type Var int32

// NoVar is an invalid variable sentinel.
const NoVar Var = -1

// Term is a coefficient–variable product.
type Term struct {
	Coeff int64
	Var   Var
}

// LinExpr is a linear expression Σ Coeff·Var + Const in a canonical form:
// terms sorted by variable, no zero coefficients, no duplicate variables.
type LinExpr struct {
	Terms []Term
	Const int64
}

// ConstExpr returns the constant expression c.
func ConstExpr(c int64) LinExpr { return LinExpr{Const: c} }

// VarExpr returns the expression 1·v.
func VarExpr(v Var) LinExpr { return LinExpr{Terms: []Term{{Coeff: 1, Var: v}}} }

// IsConst reports whether the expression has no variable terms.
func (e LinExpr) IsConst() bool { return len(e.Terms) == 0 }

// SingleVar returns (v, coeff, true) when the expression is coeff·v + Const
// with exactly one term.
func (e LinExpr) SingleVar() (Var, int64, bool) {
	if len(e.Terms) != 1 {
		return NoVar, 0, false
	}
	return e.Terms[0].Var, e.Terms[0].Coeff, true
}

// normalize sorts terms and merges duplicates, dropping zero coefficients.
func normalize(terms []Term, c int64) LinExpr {
	sort.Slice(terms, func(i, j int) bool { return terms[i].Var < terms[j].Var })
	out := terms[:0]
	for _, t := range terms {
		if t.Coeff == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Var == t.Var {
			out[n-1].Coeff += t.Coeff
			if out[n-1].Coeff == 0 {
				out = out[:n-1]
			}
			continue
		}
		out = append(out, t)
	}
	return LinExpr{Terms: out, Const: c}
}

// Add returns e + o.
func (e LinExpr) Add(o LinExpr) LinExpr {
	terms := make([]Term, 0, len(e.Terms)+len(o.Terms))
	terms = append(terms, e.Terms...)
	terms = append(terms, o.Terms...)
	return normalize(terms, e.Const+o.Const)
}

// Sub returns e − o.
func (e LinExpr) Sub(o LinExpr) LinExpr { return e.Add(o.Neg()) }

// Neg returns −e.
func (e LinExpr) Neg() LinExpr {
	terms := make([]Term, len(e.Terms))
	for i, t := range e.Terms {
		terms[i] = Term{Coeff: -t.Coeff, Var: t.Var}
	}
	return LinExpr{Terms: terms, Const: -e.Const}
}

// MulConst returns k·e.
func (e LinExpr) MulConst(k int64) LinExpr {
	if k == 0 {
		return LinExpr{}
	}
	terms := make([]Term, len(e.Terms))
	for i, t := range e.Terms {
		terms[i] = Term{Coeff: k * t.Coeff, Var: t.Var}
	}
	return LinExpr{Terms: terms, Const: k * e.Const}
}

// AddConst returns e + k.
func (e LinExpr) AddConst(k int64) LinExpr {
	return LinExpr{Terms: e.Terms, Const: e.Const + k}
}

// Eval evaluates the expression under a model; missing variables read 0.
func (e LinExpr) Eval(m *Model) int64 {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coeff * m.Value(t.Var)
	}
	return v
}

// String renders the expression with variable names from t (or v<i> when
// t is nil).
func (e LinExpr) String(t *VarTable) string {
	if len(e.Terms) == 0 {
		return strconv.FormatInt(e.Const, 10)
	}
	var sb strings.Builder
	for i, tm := range e.Terms {
		name := fmt.Sprintf("v%d", tm.Var)
		if t != nil {
			name = t.Name(tm.Var)
		}
		switch {
		case i == 0 && tm.Coeff == 1:
			sb.WriteString(name)
		case i == 0 && tm.Coeff == -1:
			sb.WriteString("-" + name)
		case i == 0:
			fmt.Fprintf(&sb, "%d*%s", tm.Coeff, name)
		case tm.Coeff == 1:
			sb.WriteString(" + " + name)
		case tm.Coeff == -1:
			sb.WriteString(" - " + name)
		case tm.Coeff > 0:
			fmt.Fprintf(&sb, " + %d*%s", tm.Coeff, name)
		default:
			fmt.Fprintf(&sb, " - %d*%s", -tm.Coeff, name)
		}
	}
	if e.Const > 0 {
		fmt.Fprintf(&sb, " + %d", e.Const)
	} else if e.Const < 0 {
		fmt.Fprintf(&sb, " - %d", -e.Const)
	}
	return sb.String()
}

// ConstraintOp is the relation of a constraint's expression to zero.
type ConstraintOp int

// Constraint operations: E ≤ 0, E = 0, E ≠ 0.
const (
	OpLe ConstraintOp = iota + 1
	OpEq
	OpNe
)

// Constraint asserts E Op 0.
type Constraint struct {
	E  LinExpr
	Op ConstraintOp
}

// Constructors translate the usual comparison forms into canonical
// constraints (integers: a < b  ⇔  a − b + 1 ≤ 0).

// Le returns a ≤ b.
func Le(a, b LinExpr) Constraint { return Constraint{E: a.Sub(b), Op: OpLe} }

// Lt returns a < b.
func Lt(a, b LinExpr) Constraint { return Constraint{E: a.Sub(b).AddConst(1), Op: OpLe} }

// Ge returns a ≥ b.
func Ge(a, b LinExpr) Constraint { return Le(b, a) }

// Gt returns a > b.
func Gt(a, b LinExpr) Constraint { return Lt(b, a) }

// Eq returns a = b.
func Eq(a, b LinExpr) Constraint { return Constraint{E: a.Sub(b), Op: OpEq} }

// Ne returns a ≠ b.
func Ne(a, b LinExpr) Constraint { return Constraint{E: a.Sub(b), Op: OpNe} }

// Negate returns the logical negation of the constraint.
// ¬(E ≤ 0) = (−E + 1 ≤ 0); ¬(E = 0) = (E ≠ 0); ¬(E ≠ 0) = (E = 0).
func (c Constraint) Negate() Constraint {
	switch c.Op {
	case OpLe:
		return Constraint{E: c.E.Neg().AddConst(1), Op: OpLe}
	case OpEq:
		return Constraint{E: c.E, Op: OpNe}
	case OpNe:
		return Constraint{E: c.E, Op: OpEq}
	default:
		panic("solver: invalid constraint op")
	}
}

// Holds evaluates the constraint under a model.
func (c Constraint) Holds(m *Model) bool {
	v := c.E.Eval(m)
	switch c.Op {
	case OpLe:
		return v <= 0
	case OpEq:
		return v == 0
	case OpNe:
		return v != 0
	default:
		return false
	}
}

// IsTriviallyTrue reports whether the constraint holds regardless of any
// assignment (constant expression satisfying the relation).
func (c Constraint) IsTriviallyTrue() bool {
	if !c.E.IsConst() {
		return false
	}
	switch c.Op {
	case OpLe:
		return c.E.Const <= 0
	case OpEq:
		return c.E.Const == 0
	case OpNe:
		return c.E.Const != 0
	default:
		return false
	}
}

// IsTriviallyFalse reports whether the constraint is unsatisfiable on its
// own.
func (c Constraint) IsTriviallyFalse() bool {
	if !c.E.IsConst() {
		return false
	}
	return !c.IsTriviallyTrue()
}

// String renders the constraint in a readable relational form.
func (c Constraint) String(t *VarTable) string {
	op := "<= 0"
	switch c.Op {
	case OpEq:
		op = "== 0"
	case OpNe:
		op = "!= 0"
	}
	// Render single-variable constraints in the friendlier "x <= k" form.
	if v, coeff, ok := c.E.SingleVar(); ok && (coeff == 1 || coeff == -1) {
		name := fmt.Sprintf("v%d", v)
		if t != nil {
			name = t.Name(v)
		}
		k := -c.E.Const
		switch {
		case c.Op == OpLe && coeff == 1:
			return fmt.Sprintf("%s <= %d", name, k)
		case c.Op == OpLe && coeff == -1:
			return fmt.Sprintf("%s >= %d", name, -k)
		case c.Op == OpEq && coeff == 1:
			return fmt.Sprintf("%s == %d", name, k)
		case c.Op == OpEq && coeff == -1:
			return fmt.Sprintf("%s == %d", name, -k)
		case c.Op == OpNe && coeff == 1:
			return fmt.Sprintf("%s != %d", name, k)
		case c.Op == OpNe && coeff == -1:
			return fmt.Sprintf("%s != %d", name, -k)
		}
	}
	return c.E.String(t) + " " + op
}

// Result is the outcome of a satisfiability check.
type Result int

// Check outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

// String returns "sat", "unsat" or "unknown".
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}
