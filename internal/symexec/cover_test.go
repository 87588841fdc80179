package symexec

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/solver"
	"repro/internal/trace"
)

func TestSymBufReadSymbolicIndex(t *testing.T) {
	// Unguarded read with a symbolic index: the OOB-read oracle fires;
	// guarded reads return fresh values and keep going.
	src := `
func main() int {
  int i = input_int("i");
  buf b[8];
  bufwrite(b, 0, 7);
  return bufread(b, i);
}`
	res := runSym(t, src, nil, DefaultOptions())
	if !res.Found() || res.Vulns[0].Kind != interp.FaultBufferOOBRead {
		t.Fatalf("OOB read not detected: %+v", res.Vulns)
	}
	confirmWitness(t, src, res.Vulns[0])

	guarded := `
func main() int {
  int i = input_int("i");
  buf b[8];
  if (i >= 0) {
    if (i < 8) {
      return bufread(b, i);
    }
  }
  return 0;
}`
	res = runSym(t, guarded, nil, DefaultOptions())
	if res.Found() {
		t.Errorf("guarded symbolic read reported: %s", res.Vulns[0].Site())
	}
}

func TestSymComparisonAsValue(t *testing.T) {
	// Storing a comparison result forks eagerly at the comparison (the
	// pushBool non-jump path).
	src := `
func main() int {
  int x = input_int("x");
  int flag = x > 10;
  int other = !(x > 100);
  if (flag + other == 2) { assert(0); }
  return 0;
}`
	res := runSym(t, src, nil, DefaultOptions())
	if !res.Found() {
		t.Fatal("not found")
	}
	w := res.Vulns[0].Witness.Ints["x"]
	if w <= 10 || w > 100 {
		t.Errorf("witness x = %d, want (10, 100]", w)
	}
	confirmWitness(t, src, res.Vulns[0])
}

func TestSymNegationOfComparison(t *testing.T) {
	src := `
func main() int {
  int x = input_int("x");
  int notBig = !(x > 5);
  if (notBig == 1) {
    if (x == 3) { assert(0); }
  }
  return 0;
}`
	res := runSym(t, src, nil, DefaultOptions())
	if !res.Found() || res.Vulns[0].Witness.Ints["x"] != 3 {
		t.Fatalf("res = %+v", res.Vulns)
	}
	confirmWitness(t, src, res.Vulns[0])
}

func TestSymAtoiConcreteInSymbolicRun(t *testing.T) {
	src := `
func main() int {
  int v = atoi("  -37xyz");
  if (v == -37) { assert(0); }
  return 0;
}`
	res := runSym(t, src, nil, DefaultOptions())
	if !res.Found() {
		t.Error("concrete atoi mis-parsed under symbolic execution")
	}
}

func TestSymBufStrSymbolicLength(t *testing.T) {
	src := `
func main() int {
  int n = input_int("n");
  buf b[8];
  bufwrite(b, 0, 'a');
  if (n >= 0) {
    if (n <= 8) {
      string s = bufstr(b, n);
      if (len(s) > 8) { assert(0); }
    }
  }
  return 0;
}`
	res := runSym(t, src, nil, DefaultOptions())
	if res.Found() {
		t.Errorf("bufstr length bound violated: %s", res.Vulns[0].Site())
	}
}

func TestSymSubstrSymbolicIndices(t *testing.T) {
	src := `
func main() int {
  int i = input_int("i");
  string s = input_string("s");
  string sub = substr(s, i, i + 3);
  if (len(sub) > len(s)) { assert(0); }
  return 0;
}`
	res := runSym(t, src, &InputSpec{MaxStrLen: 8}, DefaultOptions())
	if res.Found() {
		t.Errorf("substr bound violated: %+v", res.Vulns)
	}
}

func TestValueStringForms(t *testing.T) {
	if got := IntVal(42).String(); got != "42" {
		t.Errorf("IntVal.String = %q", got)
	}
	if got := StrVal("hi").String(); got != `"hi"` {
		t.Errorf("StrVal.String = %q", got)
	}
	b := BufVal(NewSymBuffer(4))
	if got := b.String(); got != "buf[4]" {
		t.Errorf("BufVal.String = %q", got)
	}
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	cv := CondVal(solver.Ge(solver.VarExpr(x), solver.ConstExpr(1)))
	if !strings.Contains(cv.String(), "cond(") {
		t.Errorf("CondVal.String = %q", cv.String())
	}
	sym := &SymString{ID: 3, Label: "p", LenVar: tbl.NewVarMin("len(p)", 0)}
	if got := SymStrVal(sym).String(); !strings.Contains(got, "sym-str(p#3)") {
		t.Errorf("SymStrVal.String = %q", got)
	}
}

func TestSchedulerNames(t *testing.T) {
	names := map[string]Scheduler{
		"bfs":      NewBFS(),
		"dfs":      NewDFS(),
		"random":   NewRandom(1),
		"coverage": NewCoverage(),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestStateAddConstraintAndSeq(t *testing.T) {
	st := &State{}
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	st.AddConstraint(solver.Ge(solver.VarExpr(x), solver.ConstExpr(1)))
	if n := len(st.Constraints()); n != 1 {
		t.Errorf("constraints = %d", n)
	}
	if st.Seq() != 0 {
		t.Errorf("zero state Seq = %d", st.Seq())
	}
}

func TestTryAddConstraintsDirect(t *testing.T) {
	prog := bytecode.MustCompile("tac", `func main() int { return input_int("x"); }`)
	ex := New(prog, nil, DefaultOptions())
	res := ex.Run()
	_ = res
	// Fresh state via a second executor: drive TryAddConstraints by hand.
	ex2 := New(prog, nil, DefaultOptions())
	st := &State{Status: StatusActive}
	x := ex2.Table.NewVarBounded("x", 0, 10)
	if !ex2.TryAddConstraints(st, []solver.Constraint{solver.Ge(solver.VarExpr(x), solver.ConstExpr(3))}) {
		t.Fatal("consistent constraint rejected")
	}
	if ex2.TryAddConstraints(st, []solver.Constraint{solver.Le(solver.VarExpr(x), solver.ConstExpr(1))}) {
		t.Fatal("contradiction accepted")
	}
	if !ex2.TryAddConstraints(st, nil) {
		t.Fatal("empty constraint set rejected")
	}
}

func TestVarViewGlobal(t *testing.T) {
	src := `
global int counter = 5;
func probe() int { return counter; }
func main() int { return probe(); }`
	prog := bytecode.MustCompile("vv", src)
	sawGlobal := false
	opts := DefaultOptions()
	opts.Hook = func(ex *Executor, st *State, loc trace.Location, view *VarView) HookDecision {
		if loc.Func == "probe" {
			if v, ok := view.Global("counter"); ok {
				if c, isConst := v.IsConcreteInt(); isConst && c == 5 {
					sawGlobal = true
				}
			}
			if _, ok := view.Global("missing"); ok {
				t.Error("missing global resolved")
			}
		}
		return HookContinue
	}
	ex := New(prog, nil, opts)
	ex.Run()
	if !sawGlobal {
		t.Error("global not visible through VarView")
	}
}
