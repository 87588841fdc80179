package core

import (
	"context"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/trace"
)

// MultiReport is the output of multi-vulnerability discovery (§III-C of
// the paper: "we can isolate different vulnerabilities and use StatSym to
// identify (and eliminate) vulnerable paths one-by-one through an
// iterative process").
type MultiReport struct {
	// Clusters lists the fault clusters in processing order (largest
	// first); Reports holds one pipeline report per cluster.
	Clusters []FaultCluster
	Reports  []*Report
}

// FaultCluster groups the faulty runs attributed to one vulnerability.
// This implementation clusters by the fault signature the monitor records
// (fault kind + faulting function) — the role the paper delegates to bug
// isolation and log clustering techniques [9], [11].
type FaultCluster struct {
	FaultFunc string
	FaultKind string
	Runs      int
}

// Found counts clusters whose vulnerable path was verified.
func (m *MultiReport) Found() int {
	n := 0
	for _, r := range m.Reports {
		if r.Found() {
			n++
		}
	}
	return n
}

// RunMulti discovers multiple vulnerabilities: it partitions the faulty
// runs by fault signature, then runs the StatSym pipeline once per
// cluster, pairing each cluster's faulty logs with the full set of correct
// logs. Clusters are processed in decreasing size. Cancellation stops
// after the in-flight cluster's pipeline winds down, returning the
// clusters processed so far.
func RunMulti(ctx context.Context, prog *bytecode.Program, corpus *trace.Corpus, cfg Config) (*MultiReport, error) {
	correct, faulty := corpus.Split()

	type key struct{ fn, kind string }
	clusters := make(map[key][]*trace.Run)
	for _, run := range faulty {
		k := key{fn: run.FaultFunc, kind: run.FaultKind}
		clusters[k] = append(clusters[k], run)
	}
	keys := make([]key, 0, len(clusters))
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if len(clusters[a]) != len(clusters[b]) {
			return len(clusters[a]) > len(clusters[b])
		}
		if a.fn != b.fn {
			return a.fn < b.fn
		}
		return a.kind < b.kind
	})

	out := &MultiReport{}
	for _, k := range keys {
		if ctx.Err() != nil {
			break
		}
		members := clusters[k]
		sub := &trace.Corpus{Program: corpus.Program}
		for _, r := range correct {
			sub.Runs = append(sub.Runs, *r)
		}
		for _, r := range members {
			sub.Runs = append(sub.Runs, *r)
		}
		rep, err := RunJob(ctx, JobInputs{Prog: prog, Spec: cfg.Spec, Corpus: sub}, cfg)
		if err != nil {
			return out, err
		}
		out.Clusters = append(out.Clusters, FaultCluster{
			FaultFunc: k.fn,
			FaultKind: k.kind,
			Runs:      len(members),
		})
		out.Reports = append(out.Reports, rep)
	}
	return out, nil
}
