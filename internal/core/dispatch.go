package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/pathid"
	"repro/internal/solver"
	"repro/internal/solver/persist"
	"repro/internal/summary"
	"repro/internal/symexec"
	"repro/internal/symexec/snapshot"
)

// Distributed candidate verification: the attempt-unit codec, the
// worker-side unit executor, and the dispatch audit log
// (internal/dispatch is the wire; verify.go's slot pool is the scheduler,
// where each dialed worker is one more slot).
//
// The unit of distribution is one whole candidate attempt: hermetic by
// construction (VerifyCandidateCtx builds its own executor, solver, and
// guidance over the shipped program), deterministic under step/state
// budgets, and large enough that the wire cost — one program + spec +
// candidate out, one outcome back — is noise against the attempt itself.
// Remote outcomes merge through the same rank-order replay as local ones
// (mergeAttempts), which is what makes DetectionDigest byte-identical for
// every topology: zero workers, N workers, or workers that crash mid-unit
// (their units re-run locally).

// attemptUnitVersion versions the FrameAttemptUnit payload.
const attemptUnitVersion = 1

// EncodeAttemptUnit serializes one candidate attempt for a worker: the
// scalar verification knobs, then the program, input spec, and candidate
// path. Workers receive everything the attempt depends on — a worker
// process never loads the corpus or runs the statistical phase.
func EncodeAttemptUnit(prog *bytecode.Program, cand *pathid.CandidatePath, rank int, cfg Config) []byte {
	w := snapshot.NewWriter()
	w.Uvarint(attemptUnitVersion)
	w.Int(rank)
	w.Int(cfg.Tau)
	w.Float(cfg.MinPredScore)
	w.Varint(cfg.PerCandidateMaxSteps)
	w.Int(cfg.MaxStates)
	w.Varint(int64(cfg.PerCandidateTimeout))
	w.Bool(cfg.DisableInter)
	w.Bool(cfg.DisablePredicates)
	// Ship the per-attempt frontier share, not the raw Workers knob: the
	// worker runs one attempt with Parallel=0, so its effectiveWorkers()
	// must land on the same value the coordinator's local slots use —
	// the epoch width (one state or several) is part of determinism.
	w.Int(cfg.effectiveWorkers())
	w.String(cfg.Scope)
	w.Bool(cfg.Summaries)
	snapshot.EncodeProgram(w, prog)
	symexec.EncodeSpec(w, cfg.Spec)
	snapshot.EncodeCandidate(w, cand)
	return w.Bytes()
}

// DecodeAttemptUnit parses a FrameAttemptUnit payload into the attempt's
// program, candidate, rank, and a worker-side Config.
func DecodeAttemptUnit(payload []byte) (*bytecode.Program, *pathid.CandidatePath, int, Config, error) {
	var cfg Config
	r := snapshot.NewReader(payload)
	ver, err := r.Uvarint()
	if err != nil {
		return nil, nil, 0, cfg, err
	}
	if ver != attemptUnitVersion {
		return nil, nil, 0, cfg, fmt.Errorf("core: attempt unit version %d not supported (want %d)", ver, attemptUnitVersion)
	}
	rank, err := r.Int()
	if err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.Tau, err = r.Int(); err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.MinPredScore, err = r.Float(); err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.PerCandidateMaxSteps, err = r.Varint(); err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.MaxStates, err = r.Int(); err != nil {
		return nil, nil, 0, cfg, err
	}
	ns, err := r.Varint()
	if err != nil {
		return nil, nil, 0, cfg, err
	}
	cfg.PerCandidateTimeout = time.Duration(ns)
	if cfg.DisableInter, err = r.Bool(); err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.DisablePredicates, err = r.Bool(); err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.Workers, err = r.Int(); err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.Scope, err = r.String(); err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.Summaries, err = r.Bool(); err != nil {
		return nil, nil, 0, cfg, err
	}
	prog, err := snapshot.DecodeProgram(r)
	if err != nil {
		return nil, nil, 0, cfg, err
	}
	if cfg.Spec, err = symexec.DecodeSpec(r); err != nil {
		return nil, nil, 0, cfg, err
	}
	cand, err := snapshot.DecodeCandidate(r)
	if err != nil {
		return nil, nil, 0, cfg, err
	}
	return prog, cand, rank, cfg, nil
}

// encodeAttemptResult serializes one attempt's outcome (and vulnerability,
// when verified) as the FrameResult payload.
func encodeAttemptResult(out CandidateOutcome, vuln *symexec.Vulnerability) []byte {
	w := snapshot.NewWriter()
	w.Uvarint(attemptUnitVersion)
	w.Int(out.Index)
	w.Int(out.PathLen)
	w.Bool(out.Found)
	w.Int(out.Paths)
	w.Varint(out.Steps)
	w.Int(out.Suspends)
	w.Int(out.Matches)
	w.Varint(int64(out.Elapsed))
	w.Bool(out.Infeasible)
	w.Bool(out.Cancelled)
	w.Int(out.SolverChecks)
	w.Int(out.CacheHits)
	w.Int(out.CompReused)
	w.Int(out.CacheMisses)
	w.Varint(int64(out.SolverTime))
	w.Int(out.SummaryCalls)
	w.Int(out.SummaryPaths)
	w.Int(out.HavocCalls)
	w.Int(out.DepthExhausted)
	if vuln != nil {
		w.Bool(true)
		symexec.EncodeVulnerability(w, vuln)
	} else {
		w.Bool(false)
	}
	return w.Bytes()
}

// decodeAttemptResult parses a FrameResult payload back into the outcome.
func decodeAttemptResult(payload []byte) (CandidateOutcome, *symexec.Vulnerability, error) {
	var out CandidateOutcome
	r := snapshot.NewReader(payload)
	ver, err := r.Uvarint()
	if err != nil {
		return out, nil, err
	}
	if ver != attemptUnitVersion {
		return out, nil, fmt.Errorf("core: attempt result version %d not supported (want %d)", ver, attemptUnitVersion)
	}
	var ns int64
	if out.Index, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.PathLen, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.Found, err = r.Bool(); err != nil {
		return out, nil, err
	}
	if out.Paths, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.Steps, err = r.Varint(); err != nil {
		return out, nil, err
	}
	if out.Suspends, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.Matches, err = r.Int(); err != nil {
		return out, nil, err
	}
	if ns, err = r.Varint(); err != nil {
		return out, nil, err
	}
	out.Elapsed = time.Duration(ns)
	if out.Infeasible, err = r.Bool(); err != nil {
		return out, nil, err
	}
	if out.Cancelled, err = r.Bool(); err != nil {
		return out, nil, err
	}
	if out.SolverChecks, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.CacheHits, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.CompReused, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.CacheMisses, err = r.Int(); err != nil {
		return out, nil, err
	}
	if ns, err = r.Varint(); err != nil {
		return out, nil, err
	}
	out.SolverTime = time.Duration(ns)
	if out.SummaryCalls, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.SummaryPaths, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.HavocCalls, err = r.Int(); err != nil {
		return out, nil, err
	}
	if out.DepthExhausted, err = r.Int(); err != nil {
		return out, nil, err
	}
	hasVuln, err := r.Bool()
	if err != nil {
		return out, nil, err
	}
	var vuln *symexec.Vulnerability
	if hasVuln {
		if vuln, err = symexec.DecodeVulnerability(r); err != nil {
			return out, nil, err
		}
	}
	return out, vuln, nil
}

// WorkerConfig tunes one worker process's unit execution.
type WorkerConfig struct {
	// CacheDir attaches the worker to the same persistent solver-cache
	// store the coordinator uses (wall-clock only, like everywhere else:
	// each loaded verdict is re-verified before use).
	CacheDir string
	// Obs receives the worker's spans and metrics (nil: silent).
	Obs *obs.Obs
}

// NewDispatchRunner returns the worker-side unit executor for
// dispatch.Serve: each FrameAttemptUnit payload runs one candidate
// attempt, and any other unit kind is refused. Each unit is hermetic —
// decode, execute, encode — so a malformed unit fails that unit only,
// never the worker.
func NewDispatchRunner(wc WorkerConfig) dispatch.Runner {
	return func(typ byte, payload []byte) ([]byte, error) {
		if typ != snapshot.FrameAttemptUnit {
			return nil, fmt.Errorf("core: unknown unit frame %#x", typ)
		}
		return runAttemptUnit(wc, payload)
	}
}

// runAttemptUnit executes one shipped candidate attempt.
func runAttemptUnit(wc WorkerConfig, payload []byte) ([]byte, error) {
	prog, cand, rank, cfg, err := DecodeAttemptUnit(payload)
	if err != nil {
		return nil, fmt.Errorf("decode attempt unit: %w", err)
	}
	ctx := obs.NewContext(context.Background(), wc.Obs)
	if wc.CacheDir != "" {
		cfg.sharedCache = solver.NewSharedCache(0)
		cfg.originHashes = summary.HashProgram(prog)
		session, err := persist.Attach(persist.Config{
			Dir:     wc.CacheDir,
			Program: prog,
			Shared:  cfg.sharedCache,
			Obs:     wc.Obs,
		})
		if err != nil {
			// The persistent cache is a wall-clock accelerator; a worker
			// that cannot attach it still answers correctly.
			obs.Warn(ctx, "worker cache attach failed", obs.A("error", err.Error()))
			cfg.sharedCache = nil
			cfg.originHashes = nil
		} else {
			defer func() {
				if cerr := session.Close(); cerr != nil {
					obs.Warn(ctx, "worker cache seal failed", obs.A("error", cerr.Error()))
				}
			}()
		}
	}
	out, vuln := VerifyCandidateCtx(ctx, prog, cand, rank, cfg)
	return encodeAttemptResult(out, vuln), nil
}

// DispatchEvent is one line of the -dispatch-log JSONL audit trail.
type DispatchEvent struct {
	T      time.Time `json:"t"`
	Event  string    `json:"event"`
	Rank   int       `json:"rank,omitempty"`
	Worker string    `json:"worker,omitempty"`
	Err    string    `json:"err,omitempty"`
	// Merge-event summary: the winning rank and the remote/local/
	// redispatched unit counts.
	Winner int `json:"winner,omitempty"`
	Remote int `json:"remote,omitempty"`
	Local  int `json:"local,omitempty"`
	Redisp int `json:"redispatched,omitempty"`
}

// KnownDispatchEvents enumerates the legal Event values (tracecheck
// validates log lines against this set).
var KnownDispatchEvents = map[string]bool{
	"dial":        true,
	"dial_failed": true,
	"steal":       true,
	"local":       true,
	"redispatch":  true,
	"worker_dead": true,
	"merge":       true,
}

// dispatchLog mirrors every scheduling event to the JSONL file (when
// configured) and the obs sink's "dispatch" category (when observing).
type dispatchLog struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
	o   *obs.Obs
}

func openDispatchLog(path string, o *obs.Obs) *dispatchLog {
	l := &dispatchLog{o: o}
	if path == "" {
		return l
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		obs.Warn(obs.NewContext(context.Background(), o), "dispatch log open failed",
			obs.A("path", path), obs.A("error", err.Error()))
		return l
	}
	l.f = f
	l.enc = json.NewEncoder(f)
	return l
}

// note records one event. A nil log (Dispatch off) records nothing.
func (l *dispatchLog) note(ev DispatchEvent) {
	if l == nil {
		return
	}
	ev.T = time.Now()
	l.mu.Lock()
	if l.enc != nil {
		l.enc.Encode(ev) // an unwritable audit log never fails the run
	}
	l.mu.Unlock()
	if l.o != nil {
		attrs := map[string]any{}
		if ev.Rank != 0 {
			attrs["rank"] = ev.Rank
		}
		if ev.Worker != "" {
			attrs["worker"] = ev.Worker
		}
		if ev.Err != "" {
			attrs["err"] = ev.Err
		}
		if ev.Event == "merge" {
			attrs["winner"] = ev.Winner
			attrs["remote"] = ev.Remote
			attrs["local"] = ev.Local
			attrs["redispatched"] = ev.Redisp
		}
		l.o.Emit(obs.Event{Type: obs.EventDispatch, Name: ev.Event, Attrs: attrs})
	}
}

func (l *dispatchLog) close() {
	if l != nil && l.f != nil {
		l.f.Close()
	}
}
