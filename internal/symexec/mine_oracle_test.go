package symexec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// oracleInputs is the number of random inputs each app runs concretely.
const oracleInputs = 400

// TestMinedSummariesMatchConcreteRuns checks every mined summary against
// the concrete VM. Each app runs a fixed-seed batch of its workload inputs;
// at every exit of a summarizable function, exactly one mined path's entry
// constraints must hold under the parameters the call entered with, and
// that path's return expression must evaluate to the value the call
// returned. A summary is a disjunction of disjoint paths that must cover
// every execution, so zero matches means a lost path and two means
// overlapping ones.
func TestMinedSummariesMatchConcreteRuns(t *testing.T) {
	// The summarizable functions of the bundled apps; each must be mined
	// and called by the workload at least once.
	want := map[string]bool{
		"ctree.classify_entry":       true,
		"thttpd.hexit":               true,
		"thttpd.sockaddr_check":      true,
		"grep.classify_pattern_char": true,
	}
	seen := map[string]bool{}
	for _, app := range append(apps.All(), apps.Extras()...) {
		prog := app.Program()
		fx := summary.Analyze(prog)
		sums := make([]*summary.FnSummary, len(prog.Funcs))
		for _, fn := range prog.Funcs {
			if !fx[fn.Index].Summarizable {
				continue
			}
			name := app.Name + "." + fn.Name
			if !want[name] {
				t.Errorf("%s: summarizable but not in the expected set", name)
			}
			sum := symexec.MineSummary(prog, fn)
			if sum.Failed {
				t.Errorf("%s: mining failed", name)
				continue
			}
			sums[fn.Index] = sum
		}
		calls := make([]int, len(prog.Funcs))
		pathHits := make([][]int, len(prog.Funcs))
		for i, sum := range sums {
			if sum != nil {
				pathHits[i] = make([]int, len(sum.Paths))
			}
		}
		// Summarizable functions are leaves, so a call's Leave event is the
		// one right after its Enter event.
		var args []int64
		hook := func(ev interp.HookEvent) {
			sum := sums[ev.Fn.Index]
			if sum == nil {
				return
			}
			if ev.Kind == trace.EventEnter {
				args = args[:0]
				for _, p := range ev.Params {
					args = append(args, p.Int)
				}
				return
			}
			calls[ev.Fn.Index]++
			var b solver.ModelBuilder
			for i, a := range args {
				b.Set(solver.Var(i), a)
			}
			entry := b.Model()
			call := func() string {
				return fmt.Sprintf("%s.%s(%s)", app.Name, ev.Fn.Name, strings.Trim(fmt.Sprint(args), "[]"))
			}
			matched := -1
			for i, p := range sum.Paths {
				if !holdsAll(p.Cons, entry) {
					continue
				}
				if matched >= 0 {
					t.Errorf("%s: paths %d and %d both hold", call(), matched, i)
				}
				matched = i
			}
			if matched < 0 {
				t.Errorf("%s: no mined path holds", call())
				return
			}
			pathHits[ev.Fn.Index][matched]++
			p := sum.Paths[matched]
			switch {
			case (p.Ret == nil) != (ev.Ret == nil):
				t.Errorf("%s: path %d return presence differs from the call's", call(), matched)
			case p.Ret != nil && p.Ret.Eval(entry) != ev.Ret.Int:
				t.Errorf("%s: path %d returns %d, the call returned %d", call(), matched, p.Ret.Eval(entry), ev.Ret.Int)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < oracleInputs; i++ {
			if _, err := interp.Run(prog, app.NewInput(rng), interp.Config{Hook: hook}); err != nil {
				t.Fatalf("%s: input %d: %v", app.Name, i, err)
			}
		}
		for i, sum := range sums {
			if sum == nil || calls[i] == 0 {
				continue
			}
			name := app.Name + "." + prog.Funcs[i].Name
			seen[name] = true
			covered := 0
			for _, n := range pathHits[i] {
				if n > 0 {
					covered++
				}
			}
			t.Logf("%s: %d calls cover %d/%d mined paths", name, calls[i], covered, len(sum.Paths))
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: never called by the workload inputs", name)
		}
	}
}

func holdsAll(cons []solver.Constraint, m *solver.Model) bool {
	for _, c := range cons {
		if !c.Holds(m) {
			return false
		}
	}
	return true
}
