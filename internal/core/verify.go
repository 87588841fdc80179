package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/pathid"
	"repro/internal/symexec"
	"repro/internal/symexec/snapshot"
)

// Candidate verification: the Fig. 5 loop as a rank-order slot pool.
//
// The paper verifies the ranked candidate paths in order and stops at the
// first one that verifies (§V). Each attempt is an independent symbolic
// execution (its own executor, solver, and guidance state over the shared
// read-only program), so the engine treats attempts as units that slots
// pull from one rank-ordered queue:
//
//   - max(1, Parallel) local slots verify in process;
//   - with Dispatch, one more slot per dialed worker address ships the
//     attempt to that worker process (dispatch.go) and re-runs it locally
//     when the worker fails — a remote worker steals exactly the ranks the
//     local slots have not claimed;
//   - when the attempt at rank r verifies, every rank above r is
//     cancelled: it could only be reached after a rank-r failure, which now
//     cannot happen. Ranks below r keep running — one of them may still
//     succeed at a lower rank, which is the answer the sequential loop
//     gives;
//   - outcomes merge in rank order (mergeAttempts) up to and including the
//     lowest success, so Report.Candidates, CandidateUsed, TotalPaths, and
//     TotalSteps are identical for every slot count and topology whenever
//     the per-candidate budgets are deterministic (step/state bounds).
//
// One local slot is the paper's sequential loop: the slot claims rank r+1
// only after rank r has finished, and claims nothing after a success.

// verifyCandidates verifies cands through the slot pool and merges the
// outcomes into rep. The Dispatch* report fields and the dispatch log are
// written only when cfg.Dispatch is set.
func verifyCandidates(ctx context.Context, prog *bytecode.Program, cands []*pathid.CandidatePath, cfg Config, rep *Report) {
	if len(cands) == 0 {
		return
	}
	o := obs.FromContext(ctx)
	var dlog *dispatchLog
	if cfg.Dispatch {
		dlog = openDispatchLog(cfg.DispatchLog, o)
		defer dlog.close()
	}

	attempts := make([]attempt, len(cands))
	ctxs := make([]context.Context, len(cands))
	cancels := make([]context.CancelFunc, len(cands))
	for i := range cands {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	// winner is the lowest successful 1-based rank so far (0: none).
	var mu sync.Mutex
	winner := 0
	record := func(i int, a attempt) {
		attempts[i] = a
		if a.vuln == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if winner != 0 && winner <= i+1 {
			return
		}
		winner = i + 1
		for j := i + 1; j < len(cancels); j++ {
			cancels[j]()
		}
	}
	// claimable reports whether rank i+1 is still worth starting: not
	// beyond the winner, and not cancelled by the caller.
	claimable := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return (winner == 0 || i+1 <= winner) && ctxs[i].Err() == nil
	}

	var remote, local, redispatched, dead atomic.Int64
	runLocal := func(i int) {
		outcome, vuln := VerifyCandidateCtx(ctxs[i], prog, cands[i], i+1, cfg)
		record(i, attempt{outcome: outcome, vuln: vuln, complete: !outcome.Cancelled})
	}
	verifyLocal := func(i int) {
		dlog.note(DispatchEvent{Event: "local", Rank: i + 1})
		local.Add(1)
		runLocal(i)
	}
	// verifyRemote ships rank i+1 to a worker. Any failure (transport,
	// deadline, or a unit-level error) re-runs the rank locally on the
	// calling slot, so a lost worker costs speed, never a detection; a
	// slot whose worker died degrades into one more local slot, so queued
	// ranks never stall behind it.
	verifyRemote := func(addr string, c *dispatch.Client) func(i int) {
		return func(i int) {
			rank := i + 1
			if c.Dead() != nil {
				verifyLocal(i)
				return
			}
			dlog.note(DispatchEvent{Event: "steal", Rank: rank, Worker: addr})
			unit := EncodeAttemptUnit(prog, cands[i], rank, cfg)
			if o != nil {
				o.Metrics.Counter(obs.MetricDispatchUnitBytes).Add(int64(len(unit)))
			}
			reply, err := c.Do(snapshot.FrameAttemptUnit, unit, cfg.UnitDeadline)
			var outcome CandidateOutcome
			var vuln *symexec.Vulnerability
			if err == nil {
				if o != nil {
					o.Metrics.Counter(obs.MetricDispatchResultBytes).Add(int64(len(reply)))
				}
				outcome, vuln, err = decodeAttemptResult(reply)
			}
			if err != nil {
				if c.Dead() != nil {
					dlog.note(DispatchEvent{Event: "worker_dead", Worker: addr, Err: c.Dead().Error()})
					dead.Add(1)
				}
				dlog.note(DispatchEvent{Event: "redispatch", Rank: rank, Worker: addr, Err: err.Error()})
				obs.Warn(ctx, "dispatch unit re-run locally",
					obs.A("rank", rank), obs.A("addr", addr), obs.A("error", err.Error()))
				redispatched.Add(1)
				runLocal(i)
				return
			}
			remote.Add(1)
			record(i, attempt{outcome: outcome, vuln: vuln, complete: !outcome.Cancelled})
		}
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	// Feeding starts only after every slot is parked at the queue
	// (ready.Wait below). Without the barrier, a single-core scheduler can
	// let the first local slot drain the whole queue before a worker slot
	// ever runs — turning every remote topology into a de facto local run.
	// With it, the first sends hand one rank to each parked slot, so
	// connected workers always get a chance to steal.
	var ready sync.WaitGroup
	slot := func(verify func(i int)) {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for i := range indices {
				if claimable(i) {
					verify(i)
				}
			}
		}()
	}
	for s := min(max(1, cfg.Parallel), len(cands)); s > 0; s-- {
		slot(verifyLocal)
	}
	if cfg.Dispatch {
		for _, addr := range cfg.WorkerAddrs {
			c, err := dispatch.Dial(addr)
			if err != nil {
				dlog.note(DispatchEvent{Event: "dial_failed", Worker: addr, Err: err.Error()})
				obs.Warn(ctx, "dispatch worker unreachable", obs.A("addr", addr), obs.A("error", err.Error()))
				dead.Add(1)
				continue
			}
			dlog.note(DispatchEvent{Event: "dial", Worker: addr})
			// Caller cancellation severs in-flight round trips: closing the
			// connection fails the pending Do, and the local re-run sees the
			// already-cancelled per-rank context, so it records the partial
			// attempt and unwinds — the same accounting as a local slot.
			stop := context.AfterFunc(ctx, func() { c.Close() })
			defer stop()
			defer c.Close()
			slot(verifyRemote(addr, c))
		}
	}
	ready.Wait()
	for i := range cands {
		indices <- i
	}
	close(indices)
	wg.Wait()

	mergeAttempts(rep, attempts)
	if !cfg.Dispatch {
		return
	}
	rep.DispatchRemote = int(remote.Load())
	rep.DispatchLocal = int(local.Load())
	rep.DispatchRedispatched = int(redispatched.Load())
	rep.DispatchWorkersDead = int(dead.Load())
	dlog.note(DispatchEvent{Event: "merge", Winner: rep.CandidateUsed,
		Remote: rep.DispatchRemote, Local: rep.DispatchLocal, Redisp: rep.DispatchRedispatched})
	if o != nil {
		m := o.Metrics
		m.Counter(obs.MetricDispatchRemote).Add(int64(rep.DispatchRemote))
		m.Counter(obs.MetricDispatchLocal).Add(int64(rep.DispatchLocal))
		m.Counter(obs.MetricDispatchRedispatched).Add(int64(rep.DispatchRedispatched))
		m.Counter(obs.MetricDispatchWorkersDead).Add(int64(rep.DispatchWorkersDead))
	}
}

// attempt records one candidate verification for the rank-order merge.
type attempt struct {
	outcome  CandidateOutcome
	vuln     *symexec.Vulnerability
	complete bool // ran to its own stop condition, not cancelled/skipped
}

// started reports whether the attempt actually ran (a zero attempt is a
// rank that was skipped before starting — beyond the winner, or after the
// caller's context died).
func (a *attempt) started() bool { return a.outcome.Index != 0 }

// mergeAttempts replays the sequential loop over the recorded attempts so
// the merged report is deterministic and rank-ordered:
//
//   - complete attempts accumulate in rank order up to and including the
//     first success, exactly like the Fig. 5 loop;
//   - ranks past the first success are discarded — the sequential loop
//     never runs them, so their counters (including any partial work done
//     before the first-success cancel reached them) must not leak into
//     TotalPaths/TotalSteps;
//   - an incomplete attempt below the winner means the caller's context
//     died mid-flight. The sequential loop records that in-flight attempt
//     with its partial counters and Cancelled=true before stopping, so
//     the merge includes the first such attempt (and only the first: a
//     sequential run has exactly one attempt in flight when the cancel
//     lands) and stops there.
func mergeAttempts(rep *Report, attempts []attempt) {
	for i := range attempts {
		a := &attempts[i]
		if !a.complete {
			if a.started() && a.outcome.Cancelled {
				rep.addOutcome(a.outcome)
			}
			break
		}
		rep.addOutcome(a.outcome)
		if a.vuln != nil {
			rep.Vuln = a.vuln
			rep.CandidateUsed = i + 1
			break
		}
	}
}
