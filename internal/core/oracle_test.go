package core

import (
	"context"

	"repro/internal/bytecode"
	"repro/internal/pathid"
	"repro/internal/trace"
)

// verifySequential is the paper's Fig. 5 loop verbatim: attempt candidates
// in rank order, stop at the first verified vulnerable path. It is the
// reference the engine differentials compare the slot pool against.
func verifySequential(ctx context.Context, prog *bytecode.Program, cands []*pathid.CandidatePath, cfg Config, rep *Report) {
	for i, cand := range cands {
		if ctx.Err() != nil {
			break
		}
		outcome, vuln := VerifyCandidateCtx(ctx, prog, cand, i+1, cfg)
		rep.addOutcome(outcome)
		if vuln != nil {
			rep.Vuln = vuln
			rep.CandidateUsed = i + 1
			break
		}
	}
}

// runSequentialOracle runs the full pipeline over an in-memory corpus with
// the reference loop in place of the slot pool.
func runSequentialOracle(prog *bytecode.Program, corpus *trace.Corpus, cfg Config) (*Report, error) {
	return runJob(context.Background(), JobInputs{Prog: prog, Spec: cfg.Spec, Corpus: corpus}, cfg, verifySequential)
}

// runCorpus is RunJob over an in-memory corpus, with the spec taken from
// cfg (test shorthand).
func runCorpus(ctx context.Context, prog *bytecode.Program, corpus *trace.Corpus, cfg Config) (*Report, error) {
	return RunJob(ctx, JobInputs{Prog: prog, Spec: cfg.Spec, Corpus: corpus}, cfg)
}
