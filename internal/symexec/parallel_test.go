package symexec

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/solver"
)

// parallelTestPrograms are small programs with branchy frontiers — enough
// forking that epochs actually fill and merge order matters.
var parallelTestPrograms = []struct {
	name string
	src  string
	spec *InputSpec
}{
	{
		name: "loop-assert",
		src: `
func vul_func(int a) void {
  if (a >= 3) { assert(0); }
  return;
}
func f1(int x) void {
  if (x >= 200 || x < 0) { return; }
  int i = 0;
  while (i < x) {
    vul_func(i);
    i = i + 1;
  }
  return;
}
func main() int {
  int m = input_int("sym_m");
  f1(m);
  return 0;
}`,
	},
	{
		name: "string-overflow",
		src: `
func copy_in(string s) void {
  buf dst[16];
  int i = 0;
  while (i < len(s)) {
    bufwrite(dst, i, char(s, i));
    i = i + 1;
  }
  return;
}
func main() int {
  copy_in(input_string("payload"));
  return 0;
}`,
		spec: &InputSpec{MaxStrLen: 32},
	},
	{
		name: "two-inputs-branchy",
		src: `
func check(int a, int b) void {
  if (a > 50) {
    if (b > 50) {
      if (a + b > 150) { assert(0); }
    }
  }
  return;
}
func main() int {
  int a = input_int("a");
  int b = input_int("b");
  if (a < 0 || a > 100) { return 0; }
  if (b < 0 || b > 100) { return 0; }
  check(a, b);
  return 0;
}`,
	},
}

// normalizeResult strips wall-clock fields so two Results can be compared
// structurally.
func normalizeResult(r *Result) Result {
	c := *r
	c.Elapsed = 0
	c.SolverTime = 0
	return c
}

// TestParallelEpochWorkerInvariance pins the epoch engine's core contract:
// with a fixed EpochWidth, the full Result (paths, steps, forks, solver and
// cache counters, vulnerabilities with witnesses) is a function of the
// program only — never of the worker count.
func TestParallelEpochWorkerInvariance(t *testing.T) {
	for _, tc := range parallelTestPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog := bytecode.MustCompile(tc.name, tc.src)
			for _, stopFirst := range []bool{true, false} {
				var ref *Result
				for _, workers := range []int{1, 2, 4} {
					opts := DefaultOptions()
					opts.Workers = workers
					opts.StopAtFirstVuln = stopFirst
					ex := New(prog, tc.spec, opts)
					res := ex.Run()
					if res.Epochs == 0 {
						t.Fatalf("workers=%d: epoch engine did not run (Epochs=0)", workers)
					}
					if ref == nil {
						ref = res
						continue
					}
					got, want := normalizeResult(res), normalizeResult(ref)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("stopFirst=%v workers=%d diverged from workers=1:\n  got  %+v\n  want %+v",
							stopFirst, workers, got, want)
					}
				}
			}
		})
	}
}

// TestParallelConcurrentForkStress hammers copy-on-write forks from many
// goroutines whose states share ancestor structure (buried frames, heap
// blocks) — the publication pattern the epoch engine relies on. Each state
// is forked by exactly one goroutine (the engine's single-owner rule; see
// frontier.go), but the forks race on the shared ancestors' refcounts and
// buffer-cell ownership. Run under -race this is the CoW thread-safety
// test: atomic frame refcounts, atomic cell owners, registry locking.
func TestParallelConcurrentForkStress(t *testing.T) {
	src := `
func main() int {
  int a = input_int("a");
  int b = input_int("b");
  buf scratch[8];
  bufwrite(scratch, 0, a);
  if (a > 10) { return 1; }
  return 0;
}`
	prog := bytecode.MustCompile("stress", src)
	opts := DefaultOptions()
	opts.Workers = 4 // parallel mode: atomic visit counters, laned vars
	ex := New(prog, nil, opts)

	// Build a shared ancestor with a frame stack and symbolic values.
	root, err := ex.initialState()
	if err != nil {
		t.Fatal(err)
	}
	x := ex.Table.NewVar("stress_x")
	const (
		goroutines = 8
		forksPer   = 200
	)
	// Single-owner handoff: fork one private lineage root per goroutine
	// sequentially (as the merge step publishes children), then let the
	// goroutines fork their own lineages concurrently — all sharing the
	// common ancestor's buried frames and heap blocks.
	roots := make([]*State, goroutines)
	for g := range roots {
		roots[g] = root.fork()
	}
	var wg sync.WaitGroup
	states := make([][]*State, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cur := roots[g]
			for i := 0; i < forksPer; i++ {
				child := cur.fork()
				// Mutate the child: constraints and locals — each triggers
				// a copy-on-write of structure shared with the ancestor.
				child.AddConstraint(solver.Ge(solver.VarExpr(x), solver.ConstExpr(int64(i))))
				if fr := child.Top(); fr != nil && len(fr.Locals) > 0 {
					fr.Locals[0] = IntVal(int64(g*1000 + i))
				}
				states[g] = append(states[g], child)
				if i%3 == 0 {
					cur = child // deepen the sharing chain
				}
			}
		}(g)
	}
	wg.Wait()
	// Every forked state must still see a consistent frame stack.
	for g := range states {
		for _, st := range states[g] {
			if st.Top() == nil {
				t.Fatalf("goroutine %d produced a state with no frames", g)
			}
		}
	}
}

// TestParallelFrameReleaseStress pins the release protocol of
// ensureTopOwned: when sibling states concurrently return into a shared
// buried frame, each must finish copying the frame before publishing its
// refcount decrement — otherwise the sibling that observes refs==0 starts
// mutating the frame while a copy is still reading it (a race the guided
// pipeline hit under -race with the old decrement-then-copy order).
// Exactly one sibling may keep the original frame; everyone else works on
// a private copy that preserved the shared contents.
func TestParallelFrameReleaseStress(t *testing.T) {
	const (
		siblings = 8
		rounds   = 300
		pushes   = 64
	)
	for r := 0; r < rounds; r++ {
		shared := &Frame{PC: 7}
		for i := 0; i < 12; i++ {
			shared.Locals = append(shared.Locals, IntVal(int64(i)))
			shared.Stack = append(shared.Stack, IntVal(int64(100+i)))
		}
		baseLen := len(shared.Stack)
		shared.refs.Add(siblings - 1)

		sts := make([]*State, siblings)
		for i := range sts {
			sts[i] = &State{Status: StatusActive, Frames: []*Frame{shared}}
		}
		var wg sync.WaitGroup
		for i := range sts {
			wg.Add(1)
			go func(st *State, tag int) {
				defer wg.Done()
				st.ensureTopOwned()
				for p := 0; p < pushes; p++ {
					st.push(IntVal(int64(tag*1000 + p)))
				}
			}(sts[i], i)
		}
		wg.Wait()

		keepers := 0
		for i, st := range sts {
			fr := st.Top()
			if fr == shared {
				keepers++
			}
			if len(fr.Stack) != baseLen+pushes {
				t.Fatalf("round %d sibling %d: stack len %d, want %d", r, i, len(fr.Stack), baseLen+pushes)
			}
			for j := 0; j < baseLen; j++ {
				if c, ok := fr.Stack[j].IsConcreteInt(); !ok || c != int64(100+j) {
					t.Fatalf("round %d sibling %d: shared stack slot %d corrupted: %v", r, i, j, fr.Stack[j])
				}
			}
		}
		if keepers != 1 {
			t.Fatalf("round %d: %d siblings kept the original frame, want exactly 1", r, keepers)
		}
	}
}

// TestParallelFaultCountsPath: a run that stops on a concrete fault still
// counts the faulting path — Result.Paths counts faulted states — at every
// width, so Workers=0 and Workers=1 report the same Paths.
func TestParallelFaultCountsPath(t *testing.T) {
	prog := bytecode.MustCompile("concrete-fault", `
func main() int {
  int a = input_int("a");
  buf b[2];
  if (a > 5) { bufwrite(b, 3, a); }
  return 0;
}`)
	paths := map[int]int{}
	for _, workers := range []int{0, 1} {
		opts := DefaultOptions()
		opts.Workers = workers
		res := New(prog, nil, opts).Run()
		if !res.Found() {
			t.Fatalf("workers=%d: concrete overflow not found", workers)
		}
		paths[workers] = res.Paths
	}
	if paths[0] == 0 || paths[1] != paths[0] {
		t.Errorf("Paths = %d at Workers=1, %d at Workers=0; want equal and nonzero", paths[1], paths[0])
	}
}
