package symexec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/symexec/snapshot"
)

// A StateUnit is the payload of a FrameStateUnit: one frontier shard
// (a checkpoint blob from EncodeFrontierShards) together with the budgets
// the worker must run it under. Budgets travel with the unit — the worker
// process has no other channel to learn the coordinator's limits, and the
// global invariant (shard results sum to the undivided run) only holds
// when every shard sees the same MaxSteps/MaxStates as the coordinator's
// own executor.
type StateUnit struct {
	MaxSteps  int64
	MaxStates int
	Blob      []byte
}

// stateUnitVersion versions the state-unit and result payloads. Version 3
// adds CompReused; version 2 replies with the whole Result; version 1
// replied with seven of its counters.
const stateUnitVersion = 3

// EncodeStateUnit serializes u for the wire.
func EncodeStateUnit(u *StateUnit) []byte {
	w := snapshot.NewWriter()
	w.Uvarint(stateUnitVersion)
	w.Varint(u.MaxSteps)
	w.Int(u.MaxStates)
	w.Blob(u.Blob)
	return w.Bytes()
}

// DecodeStateUnit parses a FrameStateUnit payload.
func DecodeStateUnit(b []byte) (*StateUnit, error) {
	r := snapshot.NewReader(b)
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != stateUnitVersion {
		return nil, fmt.Errorf("symexec: state unit version %d not supported (want %d)", ver, stateUnitVersion)
	}
	u := &StateUnit{}
	if u.MaxSteps, err = r.Varint(); err != nil {
		return nil, err
	}
	if u.MaxStates, err = r.Int(); err != nil {
		return nil, err
	}
	if u.Blob, err = r.Blob(); err != nil {
		return nil, err
	}
	return u, nil
}

// RunStateUnit resumes the unit's shard and runs it to its stop condition
// (budget exhaustion or an empty frontier) under the pure-mode defaults
// the coordinator runs with — string-read oracles included — and the
// unit's budgets. Used by the worker side of pure-mode dispatch (symexec
// -dispatch); the coordinator folds the shard Results into its warmup's
// with MergeShards.
func RunStateUnit(ctx context.Context, u *StateUnit) (*Result, error) {
	opts := DefaultOptions()
	opts.StopAtFirstVuln = false
	opts.MaxSteps, opts.MaxStates = u.MaxSteps, u.MaxStates
	ex, err := ResumeExecutor(u.Blob, opts)
	if err != nil {
		return nil, err
	}
	return ex.RunContext(ctx), nil
}

// MergeShards folds the Results of frontier shards (nil for a shard that
// never ran) into base, the Result of the run they were split from, in
// shard order. When every shard runs to exhaustion, paths, states created,
// steps, forks, the call counters and the vulnerability sites equal the
// undivided run's: in pure mode each state explores the same subtree on
// whichever shard holds it. Solver checks, cache traffic and solver time
// are the shards' own work instead — each shard starts from its own copy
// of the warm cache, so a verdict one shard solves another may solve
// again. Budget and interruption flags are or-ed, MaxLive keeps the
// largest peak, and a vulnerability site already recorded is dropped, as
// the undivided run drops it. Elapsed is left to the caller: shards run
// concurrently, so only it knows the wall time of the whole run.
func MergeShards(base *Result, shards []*Result) {
	for _, r := range shards {
		if r == nil {
			continue
		}
		base.Paths += r.Paths
		base.StatesCreated += r.StatesCreated
		base.MaxLive = max(base.MaxLive, r.MaxLive)
		base.Steps += r.Steps
		base.Forks += r.Forks
		base.SummaryCalls += r.SummaryCalls
		base.SummaryPaths += r.SummaryPaths
		base.HavocCalls += r.HavocCalls
		base.DepthExhausted += r.DepthExhausted
		base.SolverChecks += r.SolverChecks
		base.SolverUnknowns += r.SolverUnknowns
		base.SolverSat += r.SolverSat
		base.SolverUnsat += r.SolverUnsat
		base.CacheHits += r.CacheHits
		base.CompReused += r.CompReused
		base.CacheMisses += r.CacheMisses
		base.CacheEvictions += r.CacheEvictions
		base.SolverTime += r.SolverTime
		base.Exhausted = base.Exhausted || r.Exhausted
		base.StepLimited = base.StepLimited || r.StepLimited
		base.TimedOut = base.TimedOut || r.TimedOut
		base.Cancelled = base.Cancelled || r.Cancelled
		base.SuspendedAtEnd += r.SuspendedAtEnd
		base.Revivals += r.Revivals
		base.Epochs += r.Epochs
	next:
		for _, v := range r.Vulns {
			for _, prev := range base.Vulns {
				if prev.Site() == v.Site() {
					continue next
				}
			}
			base.Vulns = append(base.Vulns, v)
		}
	}
}

// EncodeResult serializes a whole Result — a worker's reply to a state
// unit.
func EncodeResult(res *Result) []byte {
	w := snapshot.NewWriter()
	w.Uvarint(stateUnitVersion)
	for _, n := range []int{
		res.Paths, res.StatesCreated, res.MaxLive, res.Forks,
		res.SummaryCalls, res.SummaryPaths, res.HavocCalls, res.DepthExhausted,
		res.SolverChecks, res.SolverUnknowns, res.SolverSat, res.SolverUnsat,
		res.CacheHits, res.CacheMisses, res.CacheEvictions, res.CompReused,
		res.SuspendedAtEnd, res.Revivals,
	} {
		w.Int(n)
	}
	for _, n := range []int64{res.Steps, int64(res.SolverTime), int64(res.Elapsed), res.Epochs} {
		w.Varint(n)
	}
	for _, b := range []bool{res.Exhausted, res.StepLimited, res.TimedOut, res.Cancelled} {
		w.Bool(b)
	}
	w.Int(len(res.Vulns))
	for _, v := range res.Vulns {
		EncodeVulnerability(w, v)
	}
	return w.Bytes()
}

// DecodeResult parses a payload produced by EncodeResult.
func DecodeResult(b []byte) (*Result, error) {
	r := snapshot.NewReader(b)
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != stateUnitVersion {
		return nil, fmt.Errorf("symexec: result version %d not supported (want %d)", ver, stateUnitVersion)
	}
	res := &Result{}
	for _, p := range []*int{
		&res.Paths, &res.StatesCreated, &res.MaxLive, &res.Forks,
		&res.SummaryCalls, &res.SummaryPaths, &res.HavocCalls, &res.DepthExhausted,
		&res.SolverChecks, &res.SolverUnknowns, &res.SolverSat, &res.SolverUnsat,
		&res.CacheHits, &res.CacheMisses, &res.CacheEvictions, &res.CompReused,
		&res.SuspendedAtEnd, &res.Revivals,
	} {
		if *p, err = r.Int(); err != nil {
			return nil, err
		}
	}
	var solverTime, elapsed int64
	for _, p := range []*int64{&res.Steps, &solverTime, &elapsed, &res.Epochs} {
		if *p, err = r.Varint(); err != nil {
			return nil, err
		}
	}
	res.SolverTime, res.Elapsed = time.Duration(solverTime), time.Duration(elapsed)
	for _, p := range []*bool{&res.Exhausted, &res.StepLimited, &res.TimedOut, &res.Cancelled} {
		if *p, err = r.Bool(); err != nil {
			return nil, err
		}
	}
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("symexec: result claims %d vulnerabilities", n)
	}
	for i := 0; i < n; i++ {
		v, err := DecodeVulnerability(r)
		if err != nil {
			return nil, err
		}
		res.Vulns = append(res.Vulns, v)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("symexec: %d trailing bytes after result", r.Len())
	}
	return res, nil
}
