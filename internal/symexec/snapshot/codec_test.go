package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/pathid"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Varint(-1)
	w.Varint(1 << 40)
	w.Varint(-(1 << 40))
	w.Int(-42)
	w.Float(3.5)
	w.String("")
	w.String("hello")
	w.Sym("alpha")
	w.Sym("beta")
	w.Sym("alpha") // interned: repeated sym reads back identically

	r := NewReader(w.Bytes())
	if b, err := r.Byte(); err != nil || b != 0xAB {
		t.Fatalf("Byte = %#x, %v", b, err)
	}
	for i, want := range []bool{true, false} {
		if b, err := r.Bool(); err != nil || b != want {
			t.Fatalf("Bool[%d] = %v, %v", i, b, err)
		}
	}
	for i, want := range []uint64{0, 1 << 40} {
		if v, err := r.Uvarint(); err != nil || v != want {
			t.Fatalf("Uvarint[%d] = %d, %v", i, v, err)
		}
	}
	for i, want := range []int64{-1, 1 << 40, -(1 << 40)} {
		if v, err := r.Varint(); err != nil || v != want {
			t.Fatalf("Varint[%d] = %d, %v", i, v, err)
		}
	}
	if v, err := r.Int(); err != nil || v != -42 {
		t.Fatalf("Int = %d, %v", v, err)
	}
	if v, err := r.Float(); err != nil || v != 3.5 {
		t.Fatalf("Float = %v, %v", v, err)
	}
	for i, want := range []string{"", "hello"} {
		if s, err := r.String(); err != nil || s != want {
			t.Fatalf("String[%d] = %q, %v", i, s, err)
		}
	}
	for i, want := range []string{"alpha", "beta", "alpha"} {
		if s, err := r.Sym(); err != nil || s != want {
			t.Fatalf("Sym[%d] = %q, %v", i, s, err)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("trailing bytes: %d", r.Len())
	}
}

func TestSymInterningCompacts(t *testing.T) {
	long := "a-rather-long-symbol-name-used-many-times"
	w := NewWriter()
	for i := 0; i < 10; i++ {
		w.Sym(long)
	}
	// First use costs the string; each repeat costs one varint byte.
	if max := len(long) + 2 + 9*2; w.Len() > max {
		t.Fatalf("interned encoding %d bytes, want <= %d", w.Len(), max)
	}
}

func TestSymOutOfOrderRejected(t *testing.T) {
	w := NewWriter()
	w.Uvarint(7) // references dictionary entry 7 in an empty dictionary
	if _, err := NewReader(w.Bytes()).Sym(); err == nil {
		t.Fatal("out-of-order symbol id accepted")
	}
}

func TestProgramRoundTrip(t *testing.T) {
	prog := bytecode.MustCompile("rt", `
global int g = 7;
func helper(int x) int { return x * 2; }
func main() int {
  int v = input_int("v");
  if (v > 10) { return helper(v); }
  return g;
}
`)
	w := NewWriter()
	EncodeProgram(w, prog)
	got, err := DecodeProgram(NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	if !reflect.DeepEqual(got, prog) {
		t.Fatalf("program mismatch after round trip:\n got %+v\nwant %+v", got, prog)
	}
	// Deterministic: re-encoding the decoded program gives the same bytes.
	w2 := NewWriter()
	EncodeProgram(w2, got)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Fatal("re-encoding decoded program produced different bytes")
	}
}

func TestSolverTermsRoundTrip(t *testing.T) {
	cons := []solver.Constraint{
		{Op: solver.OpLe, E: solver.LinExpr{
			Terms: []solver.Term{{Coeff: 2, Var: 1}, {Coeff: -3, Var: 4}},
			Const: -17,
		}},
		{Op: solver.OpEq, E: solver.ConstExpr(0)},
	}
	m := solver.ModelOf(map[solver.Var]int64{0: 5, 3: -9})
	w := NewWriter()
	EncodeConstraints(w, cons)
	EncodeModel(w, m)
	EncodeModel(w, nil)
	r := NewReader(w.Bytes())
	gotCons, err := DecodeConstraints(r)
	if err != nil {
		t.Fatalf("DecodeConstraints: %v", err)
	}
	if !reflect.DeepEqual(gotCons, cons) {
		t.Fatalf("constraints = %+v, want %+v", gotCons, cons)
	}
	gotM, err := DecodeModel(r)
	if err != nil || !reflect.DeepEqual(gotM, m) {
		t.Fatalf("model = %+v, %v, want %+v", gotM, err, m)
	}
	gotNil, err := DecodeModel(r)
	if err != nil || gotNil != nil {
		t.Fatalf("nil model = %+v, %v", gotNil, err)
	}
}

func TestCandidateRoundTrip(t *testing.T) {
	cand := &pathid.CandidatePath{
		Nodes: []pathid.PathNode{
			{Loc: trace.Location{Func: "main", Kind: trace.EventEnter}},
			{
				Loc: trace.Location{Func: "copy_in", Kind: trace.EventEnter},
				Pred: &stats.Predicate{
					Loc:       trace.Location{Func: "copy_in", Kind: trace.EventEnter},
					Var:       "s",
					IsString:  true,
					Threshold: 16.5,
					Score:     0.875,
					Err:       2,
					CountC:    40,
					CountF:    10,
				},
			},
		},
		AvgScore: 0.8125,
		Detours:  1,
	}
	w := NewWriter()
	EncodeCandidate(w, cand)
	got, err := DecodeCandidate(NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("DecodeCandidate: %v", err)
	}
	if !reflect.DeepEqual(got, cand) {
		t.Fatalf("candidate = %+v, want %+v", got, cand)
	}
}

func TestInputRoundTrip(t *testing.T) {
	in := &interp.Input{
		Ints: map[string]int64{"n": 3},
		Strs: map[string]string{"s": "abc"},
		Env:  map[string]string{"HOME": "/tmp"},
		Args: []string{"prog", "-x"},
	}
	w := NewWriter()
	EncodeInput(w, in)
	EncodeInput(w, nil)
	r := NewReader(w.Bytes())
	got, err := DecodeInput(r)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("input = %+v, %v, want %+v", got, err, in)
	}
	gotNil, err := DecodeInput(r)
	if err != nil || gotNil != nil {
		t.Fatalf("nil input = %+v, %v", gotNil, err)
	}
}

// TestGarbageNeverPanics decodes structured types from adversarial byte
// strings; every outcome must be an error or a value, never a panic.
func TestGarbageNeverPanics(t *testing.T) {
	payloads := [][]byte{
		{},
		{0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x01, 0x00, 0x80},
		bytes.Repeat([]byte{0x7F}, 64),
	}
	// Include a truncation sweep of a valid program encoding.
	prog := bytecode.MustCompile("trunc", `func main() int { return input_int("x"); }`)
	w := NewWriter()
	EncodeProgram(w, prog)
	valid := w.Bytes()
	for i := 0; i < len(valid); i += 3 {
		payloads = append(payloads, valid[:i])
	}
	for i, p := range payloads {
		if _, err := DecodeProgram(NewReader(p)); err == nil && i < 5 {
			t.Errorf("garbage payload %d decoded as a program", i)
		}
		DecodeCandidate(NewReader(p))
		DecodeConstraints(NewReader(p))
		DecodeModel(NewReader(p))
		DecodeInput(NewReader(p))
	}
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to every structured decoder
// (they must never panic) and, when the bytes decode, re-encodes the value
// to check encode∘decode is a projection (stable on its image).
func FuzzSnapshotRoundTrip(f *testing.F) {
	prog := bytecode.MustCompile("fuzzseed", `
func main() int {
  int v = input_int("v");
  if (v > 3) { return 1; }
  return 0;
}
`)
	w := NewWriter()
	EncodeProgram(w, prog)
	f.Add(w.Bytes())
	w = NewWriter()
	EncodeConstraints(w, []solver.Constraint{{Op: solver.OpNe, E: solver.VarExpr(0)}})
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodeProgram(NewReader(data)); err == nil {
			w := NewWriter()
			EncodeProgram(w, p)
			if p2, err := DecodeProgram(NewReader(w.Bytes())); err != nil || !reflect.DeepEqual(p2, p) {
				t.Fatalf("program re-decode mismatch: %v", err)
			}
		}
		if c, err := DecodeConstraints(NewReader(data)); err == nil {
			w := NewWriter()
			EncodeConstraints(w, c)
			if c2, err := DecodeConstraints(NewReader(w.Bytes())); err != nil || !reflect.DeepEqual(c2, c) {
				t.Fatalf("constraints re-decode mismatch: %v", err)
			}
		}
		DecodeCandidate(NewReader(data))
		DecodeModel(NewReader(data))
		DecodeInput(NewReader(data))
	})
}
