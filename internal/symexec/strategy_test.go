package symexec

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/summary"
)

// runSymCalls compiles src and runs it under the given call mode/scope with
// an optional shared summary cache.
func runSymCalls(t *testing.T, src string, spec *InputSpec, opts Options, mode, scope string, cache *summary.Cache) *Result {
	t.Helper()
	prog := bytecode.MustCompile("test", src)
	pol, err := summary.ParsePolicy(scope)
	if err != nil {
		t.Fatalf("ParsePolicy(%q): %v", scope, err)
	}
	opts.Calls, err = NewCallStrategy(prog, mode, pol, cache)
	if err != nil {
		t.Fatalf("NewCallStrategy(%q): %v", mode, err)
	}
	ex := New(prog, spec, opts)
	return ex.Run()
}

// MineSummary mines fn's path summary. Exported for the external test
// package, which can reach the bundled apps (mine_oracle_test.go).
func MineSummary(prog *bytecode.Program, fn *bytecode.Fn) *summary.FnSummary {
	return mineSummary(prog, fn, &summary.Analyze(prog)[fn.Index])
}

func TestMineSummaryLeaf(t *testing.T) {
	prog := bytecode.MustCompile("mine", `
func absdiff(int a, int b) int {
  if (a > b) { return a - b; }
  return b - a;
}
func main() int { return absdiff(1, 2); }`)
	sum := MineSummary(prog, prog.Fn("absdiff"))
	if sum.Failed {
		t.Fatal("mining failed on a two-path leaf")
	}
	if sum.NParams != 2 {
		t.Errorf("NParams = %d, want 2", sum.NParams)
	}
	if len(sum.Paths) != 2 {
		t.Fatalf("paths = %d, want 2 (a>b and a<=b)", len(sum.Paths))
	}
	for i, p := range sum.Paths {
		if p.Ret == nil {
			t.Errorf("path %d: int function mined without return expression", i)
		}
		if len(p.Cons) == 0 {
			t.Errorf("path %d: branchy path mined without entry constraints", i)
		}
	}
}

func TestMineSummaryAborts(t *testing.T) {
	prog := bytecode.MustCompile("mine", `
func nonlin(int a, int b) int { return a * b; }
func noisy(int a) int { print(a); return a; }
func main() int { return nonlin(2, 3) + noisy(4); }`)
	if sum := MineSummary(prog, prog.Fn("nonlin")); !sum.Failed {
		t.Error("nonlinear multiply should abort mining")
	}
	if sum := MineSummary(prog, prog.Fn("noisy")); !sum.Failed {
		t.Error("builtin use should abort mining")
	}
}

const summarizeSrc = `
func absdiff(int a, int b) int {
  if (a > b) { return a - b; }
  return b - a;
}
func main() int {
  int x = input_int("x");
  if (absdiff(x, 10) > 5) { assert(0); }
  return 0;
}`

func TestSummarizeMatchesInterpret(t *testing.T) {
	ref := runSym(t, summarizeSrc, nil, DefaultOptions())
	got := runSymCalls(t, summarizeSrc, nil, DefaultOptions(), CallSummarize, "all", nil)

	if ref.Found() != got.Found() {
		t.Fatalf("found: interpret=%v summarize=%v", ref.Found(), got.Found())
	}
	if !got.Found() {
		t.Fatal("assert unreachable under summarization")
	}
	rv, gv := ref.Vulns[0], got.Vulns[0]
	if rv.Kind != gv.Kind || rv.Func != gv.Func {
		t.Errorf("vuln: interpret=%s summarize=%s", rv.Site(), gv.Site())
	}
	if got.SummaryCalls == 0 {
		t.Error("summarize mode never applied a summary")
	}
	// The summarized witness must still drive the concrete VM into the fault.
	confirmWitness(t, summarizeSrc, gv)
	if m := gv.Witness.Ints["x"]; m >= 5 && m <= 15 {
		t.Errorf("witness x = %d, want |x-10| > 5", m)
	}
}

func TestSummaryCacheSharedAcrossRuns(t *testing.T) {
	cache := summary.NewCache()
	runSymCalls(t, summarizeSrc, nil, DefaultOptions(), CallSummarize, "all", cache)
	afterFirst := cache.Counters()
	if afterFirst.Mined == 0 {
		t.Fatal("first run mined nothing")
	}
	runSymCalls(t, summarizeSrc, nil, DefaultOptions(), CallSummarize, "all", cache)
	afterSecond := cache.Counters()
	if afterSecond.Mined != afterFirst.Mined {
		t.Errorf("second run re-mined: %d -> %d", afterFirst.Mined, afterSecond.Mined)
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Errorf("second run hit nothing: hits %d -> %d", afterFirst.Hits, afterSecond.Hits)
	}
}

const havocSrc = `
global int g = 0;

func helper(int n) void {
  g = n;
  assert(n < 100);
  return;
}
func main() int {
  int x = input_int("x");
  helper(x);
  if (g > 50) { return 1; }
  return 0;
}`

func TestHavocOutOfScope(t *testing.T) {
	// Full interpretation proves the assert reachable.
	ref := runSym(t, havocSrc, nil, DefaultOptions())
	if !ref.Found() || ref.Vulns[0].Kind != interp.FaultAssert {
		t.Fatalf("interpret baseline should find the assert: %+v", ref.Vulns)
	}

	// With helper out of scope the call is havocked: the documented
	// soundness trade is that faults inside havocked code go undetected,
	// while its data effects (the write to g) are over-approximated, so
	// both g-branches stay explorable.
	got := runSymCalls(t, havocSrc, nil, DefaultOptions(), CallHavoc, "all,-helper", nil)
	if got.Found() {
		t.Errorf("fault inside havocked callee should be invisible: %+v", got.Vulns)
	}
	if got.HavocCalls == 0 {
		t.Error("havoc mode never havocked the out-of-scope call")
	}
	if got.Paths < 2 {
		t.Errorf("paths = %d, want >= 2 (havocked g must keep both branches live)", got.Paths)
	}
}

func TestHavocScopePolicyInterpretsInScope(t *testing.T) {
	// Same program, but the policy keeps helper in scope: havoc mode must
	// behave exactly like interpretation.
	got := runSymCalls(t, havocSrc, nil, DefaultOptions(), CallHavoc, "all", nil)
	if !got.Found() || got.Vulns[0].Kind != interp.FaultAssert {
		t.Fatalf("in-scope call must be interpreted: %+v", got.Vulns)
	}
	if got.HavocCalls != 0 {
		t.Errorf("HavocCalls = %d, want 0 under full scope", got.HavocCalls)
	}
}

func TestDepthExhaustionDistinct(t *testing.T) {
	src := `
func r(int n) int { return r(n + 1); }
func main() int { return r(0); }`
	opts := DefaultOptions()
	opts.MaxDepth = 16
	opts.MaxSteps = 100_000
	res := runSym(t, src, nil, opts)
	if res.Found() {
		t.Fatalf("unexpected vulnerability: %+v", res.Vulns)
	}
	if res.DepthExhausted != 1 {
		t.Errorf("DepthExhausted = %d, want 1", res.DepthExhausted)
	}

	// A program that never hits the bound reports zero.
	clean := runSym(t, `func main() int { return 1; }`, nil, DefaultOptions())
	if clean.DepthExhausted != 0 {
		t.Errorf("DepthExhausted = %d on shallow program, want 0", clean.DepthExhausted)
	}
}

func TestNewCallStrategyErrors(t *testing.T) {
	prog := bytecode.MustCompile("modes", `func main() int { return 0; }`)
	if s, err := NewCallStrategy(prog, "", nil, nil); err != nil || s != nil {
		t.Errorf("empty mode: %v, %v", s, err)
	}
	if s, err := NewCallStrategy(prog, CallInterpret, nil, nil); err != nil || s != nil {
		t.Errorf("interpret mode: %v, %v", s, err)
	}
	if _, err := NewCallStrategy(prog, "bogus", nil, nil); err == nil {
		t.Error("unknown mode should error")
	}
}
