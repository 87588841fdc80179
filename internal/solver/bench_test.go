package solver

import (
	"hash/fnv"
	"sort"
	"strconv"
	"testing"
)

// BenchmarkCheckBoxConstraints measures the common path-condition shape:
// single-variable bounds.
func BenchmarkCheckBoxConstraints(b *testing.B) {
	tbl := NewVarTable()
	x := tbl.NewVarMin("len", 0)
	i := tbl.NewVarMin("i", 0)
	cons := []Constraint{
		Gt(VarExpr(x), ConstExpr(518)),
		Lt(VarExpr(i), VarExpr(x)),
		Ge(VarExpr(i), ConstExpr(512)),
	}
	s := New()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if res, _ := s.Check(tbl, cons); res != Sat {
			b.Fatal(res)
		}
	}
}

// BenchmarkCheckUnsat measures refutation of an infeasible branch.
func BenchmarkCheckUnsat(b *testing.B) {
	tbl := NewVarTable()
	x := tbl.NewVarMin("len", 0)
	cons := []Constraint{
		Gt(VarExpr(x), ConstExpr(518)),
		Le(VarExpr(x), ConstExpr(100)),
	}
	s := New()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if res, _ := s.Check(tbl, cons); res != Unsat {
			b.Fatal(res)
		}
	}
}

// BenchmarkCheckFourierMotzkin forces the FM fallback (cyclic chain).
func BenchmarkCheckFourierMotzkin(b *testing.B) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	z := tbl.NewVar("z")
	cons := []Constraint{
		Lt(VarExpr(x), VarExpr(y)),
		Lt(VarExpr(y), VarExpr(z)),
		Lt(VarExpr(z), VarExpr(x)),
	}
	s := New()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if res, _ := s.Check(tbl, cons); res != Unsat {
			b.Fatal(res)
		}
	}
}

// BenchmarkCheckWideConjunction measures a defang-style path condition:
// many independent byte disequalities plus one length bound.
func BenchmarkCheckWideConjunction(b *testing.B) {
	tbl := NewVarTable()
	length := tbl.NewVarBounded("len", 0, 1200)
	cons := []Constraint{Ge(VarExpr(length), ConstExpr(1000))}
	for i := 0; i < 200; i++ {
		bv := tbl.NewVarBounded("b", 0, 255)
		cons = append(cons, Ne(VarExpr(bv), ConstExpr('<')))
		cons = append(cons, Ne(VarExpr(bv), ConstExpr('>')))
	}
	s := New()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if res, _ := s.Check(tbl, cons); res != Sat {
			b.Fatal(res)
		}
	}
}

// BenchmarkCacheHit measures the memoized path.
func BenchmarkCacheHit(b *testing.B) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	cons := []Constraint{Ge(VarExpr(x), ConstExpr(3)), Le(VarExpr(x), ConstExpr(9))}
	cs := NewCached(New())
	cs.Check(tbl, cons)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if res, _ := cs.Check(tbl, cons); res != Sat {
			b.Fatal(res)
		}
	}
}

// legacyHashConstraints is the pre-digest cache key: stringify every
// constraint, sort, and hash — O(n log n) with an allocation per
// constraint. Kept here as the benchmark baseline for DigestOf.
func legacyHashConstraints(cons []Constraint) uint64 {
	keys := make([]string, len(cons))
	for i, c := range cons {
		buf := make([]byte, 0, 16+12*len(c.E.Terms))
		buf = strconv.AppendInt(buf, int64(c.Op), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, c.E.Const, 10)
		for _, tm := range c.E.Terms {
			buf = append(buf, ';')
			buf = strconv.AppendInt(buf, int64(tm.Var), 10)
			buf = append(buf, '*')
			buf = strconv.AppendInt(buf, tm.Coeff, 10)
		}
		keys[i] = string(buf)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// benchConjunction builds an n-constraint path condition of the defang
// shape (byte disequalities plus a length bound).
func benchConjunction(n int) []Constraint {
	tbl := NewVarTable()
	length := tbl.NewVarBounded("len", 0, 1200)
	cons := []Constraint{Ge(VarExpr(length), ConstExpr(1000))}
	for i := 1; i < n; i++ {
		bv := tbl.NewVarBounded("b", 0, 255)
		cons = append(cons, Ne(VarExpr(bv), ConstExpr('<')))
	}
	return cons
}

// BenchmarkHashLegacySort is the old sort+stringify cache key over a
// 64-constraint path condition.
func BenchmarkHashLegacySort(b *testing.B) {
	cons := benchConjunction(64)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if legacyHashConstraints(cons) == 0 {
			b.Fatal("zero hash")
		}
	}
}

// BenchmarkHashDigestOf is the replacement: one alloc-free additive pass.
func BenchmarkHashDigestOf(b *testing.B) {
	cons := benchConjunction(64)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if DigestOf(cons).Sum == 0 {
			b.Fatal("zero digest")
		}
	}
}

// BenchmarkHashDigestIncremental is the executor's actual hot path: extend
// an existing digest by one appended constraint instead of re-keying the
// conjunction.
func BenchmarkHashDigestIncremental(b *testing.B) {
	cons := benchConjunction(64)
	base := DigestOf(cons[:63])
	last := cons[63]
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if base.Add(HashConstraint(last)).Sum == 0 {
			b.Fatal("zero digest")
		}
	}
}
