// Package monitor implements the runtime sampling and logging component of
// the paper (§VI-A) — the Valgrind/Fjalar substitute. It drives the
// concrete VM over test inputs, observing function entry and exit points,
// and records global variables, function parameters and return values into
// trace logs, subsampling events at a tunable rate to model partial logging
// (§III-B).
package monitor

import (
	"fmt"
	"math/rand"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/trace"
)

// Config controls log collection.
type Config struct {
	// SampleRate is the probability that any single entry/exit event is
	// logged (1.0 = full logging, 0.3 = the paper's default partial rate).
	SampleRate float64
	// Seed makes sampling deterministic; each run derives its own stream.
	Seed int64
	// MaxSteps bounds each concrete run (0: interpreter default).
	MaxSteps int
}

// CollectRun executes prog over input once and returns its (possibly
// subsampled) log, annotated correct/faulty.
func CollectRun(prog *bytecode.Program, input *interp.Input, cfg Config, runID int) (*trace.Run, error) {
	rate := cfg.SampleRate
	if rate <= 0 {
		rate = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(runID)))
	run := &trace.Run{ID: runID}
	hook := func(ev interp.HookEvent) {
		if rate < 1.0 && rng.Float64() >= rate {
			return
		}
		run.Records = append(run.Records, buildRecord(prog, ev))
	}
	res, err := interp.Run(prog, input, interp.Config{Hook: hook, MaxSteps: cfg.MaxSteps})
	if err != nil {
		return nil, fmt.Errorf("monitor: run %d: %w", runID, err)
	}
	run.Faulty = res.Faulty()
	if run.Faulty {
		run.FaultKind = res.Fault.String()
		run.FaultFunc = res.FaultFunc
	}
	return run, nil
}

// buildRecord converts a VM hook event into a log record: globals at both
// entry and exit, parameters at entry, the return value at exit.
func buildRecord(prog *bytecode.Program, ev interp.HookEvent) trace.Record {
	rec := trace.Record{Loc: trace.Location{Func: ev.Fn.Name, Kind: ev.Kind}}
	for gi, g := range prog.Globals {
		rec.Obs = append(rec.Obs, observe(g.Name, trace.ClassGlobal, ev.Globals[gi]))
	}
	if ev.Kind == trace.EventEnter {
		for pi, pname := range ev.Fn.ParamNames {
			// Buffers are not logged (Fjalar logs scalar/string views).
			if ev.Params[pi].Kind == interp.KindBuf {
				continue
			}
			rec.Obs = append(rec.Obs, observe(pname, trace.ClassParam, ev.Params[pi]))
		}
	}
	if ev.Kind == trace.EventLeave && ev.Ret != nil {
		rec.Obs = append(rec.Obs, observe("ret", trace.ClassReturn, *ev.Ret))
	}
	return rec
}

func observe(name string, class trace.VarClass, v interp.Value) trace.Observation {
	ob := trace.Observation{Var: name, Class: class}
	switch v.Kind {
	case interp.KindString:
		ob.Kind = trace.ValueString
		ob.Str = v.Str
	default:
		ob.Kind = trace.ValueInt
		ob.Int = v.Int
	}
	return ob
}
