package symexec

import (
	"context"
	"time"
)

// The paper's sequential scheduling loop, kept verbatim as the reference
// the epoch loop is compared against: at Workers=0 RunContext must
// reproduce it exactly (oracle_equiv_test.go).

// RunOracle runs ex through the sequential reference loop under the same
// setup and counter fold as RunContext. Exported for the external test
// package, which can reach the bundled apps.
func RunOracle(ctx context.Context, ex *Executor) *Result {
	return ex.runContext(ctx, (*Executor).runSequential)
}

// runSequential is the original single-threaded scheduling loop.
func (ex *Executor) runSequential() {
	for !ex.stopped {
		if ex.res.Steps >= ex.Opts.MaxSteps {
			ex.res.StepLimited = true
			break
		}
		if err := ex.ctx.Err(); err != nil {
			ex.noteInterrupt(err)
			break
		}
		if ex.obsv != nil && ex.obsv.Interval > 0 && time.Since(ex.lastSnap) >= ex.obsv.Interval {
			ex.emitProgress()
			ex.lastSnap = time.Now()
		}
		cur := ex.sched.Next()
		if cur == nil {
			if len(ex.suspended) == 0 {
				break
			}
			// Revive the suspended pool: guidance found nothing among the
			// prioritized states, so fall back toward pure symbolic
			// execution (paper footnote 1).
			ex.reviveSuspended()
			continue
		}
		ex.runQuantum(cur)
	}
}

// runQuantum executes up to BatchSize instructions of st, then reinserts
// it into the scheduler if it is still runnable.
func (ex *Executor) runQuantum(st *State) {
	for i := 0; i < BatchSize; i++ {
		children, suspend, done := ex.step(st)
		for _, child := range children {
			ex.addState(child)
			if ex.stopped {
				return
			}
		}
		if suspend {
			st.Status = StatusSuspended
			ex.suspended = append(ex.suspended, st)
			ex.suspensions++
			if ex.hops != nil {
				ex.hops.Observe(int64(st.Diverted))
			}
			return
		}
		if done {
			ex.res.Paths++
			return
		}
		if ex.stopped || ex.res.Steps >= ex.Opts.MaxSteps {
			break
		}
	}
	if !ex.stopped {
		ex.sched.Add(st)
	}
}
