package core

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The statistical phase — predicate construction and candidate-path
// building — is a pure function of (corpus, path config). When a CacheDir
// is set, its result is memoized next to the solver-cache store and
// replayed on warm runs whose corpus fingerprint and configuration match,
// skipping the derivation entirely. Like the solver cache this is a
// wall-clock-only optimization: a hit replays byte-exact predicates and
// candidates (JSON float encoding round-trips exactly), so the detection
// digest cannot move; any mismatch, corruption, or decode failure falls
// back to recomputing and overwriting the artifact.

// statsCacheName is the memoized-stats artifact, a sibling of the
// solver-cache manifest inside CacheDir.
const statsCacheName = "statscache.json"

const statsCacheVersion = 1

// savedNode flattens a pathid.PathNode for storage: the predicate pointer
// becomes an index into the artifact's predicate list (-1 for none), so
// reloaded candidates share the reloaded *stats.Predicate values exactly
// as built ones share the analysis's.
type savedNode struct {
	Loc  trace.Location `json:"loc"`
	Pred int            `json:"pred"`
}

type savedCandidate struct {
	Nodes    []savedNode `json:"nodes"`
	AvgScore float64     `json:"avgScore"`
	Detours  int         `json:"detours"`
}

type statsCacheArtifact struct {
	Version int    `json:"version"`
	Program string `json:"program"`
	// Corpus is the corpusFingerprint of the runs the stats were derived
	// from; Path is the candidate-construction config verbatim. Both must
	// match exactly for a hit.
	Corpus     uint64           `json:"corpus"`
	Path       pathid.Config    `json:"path"`
	Analysis   *stats.Analysis  `json:"analysis"`
	Skeleton   []trace.Location `json:"skeleton"`
	Detours    []pathid.Detour  `json:"detours"`
	Candidates []savedCandidate `json:"candidates"`
}

// corpusFingerprint hashes the corpus content — program, run annotations,
// every record's location and observations — in one allocation-free linear
// pass (FNV-64a). Field boundaries are length-prefixed so concatenations
// cannot collide structurally.
func corpusFingerprint(c *trace.Corpus) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	num := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(c.Program)
	num(uint64(len(c.Runs)))
	for i := range c.Runs {
		r := &c.Runs[i]
		num(uint64(r.ID))
		if r.Faulty {
			num(1)
		} else {
			num(0)
		}
		str(r.FaultKind)
		str(r.FaultFunc)
		num(uint64(len(r.Records)))
		for j := range r.Records {
			rec := &r.Records[j]
			str(rec.Loc.Func)
			num(uint64(rec.Loc.Kind))
			num(uint64(len(rec.Obs)))
			for k := range rec.Obs {
				o := &rec.Obs[k]
				str(o.Var)
				num(uint64(o.Class))
				num(uint64(o.Kind))
				num(uint64(o.Int))
				str(o.Str)
			}
		}
	}
	return h.Sum64()
}

// loadStatsCache replays a memoized stats phase if the artifact matches
// (program, corpus fingerprint, path config) exactly. Any failure — no
// file, stale key, corrupt JSON, out-of-range predicate index — is a miss.
// The returned Result carries no Graph: callers that need it (statsym
// -dot) set Config.NeedGraph and bypass the cache.
func loadStatsCache(dir string, fp uint64, program string, pathCfg pathid.Config) (*stats.Analysis, *pathid.Result, bool) {
	blob, err := os.ReadFile(filepath.Join(dir, statsCacheName))
	if err != nil {
		return nil, nil, false
	}
	var art statsCacheArtifact
	if json.Unmarshal(blob, &art) != nil {
		return nil, nil, false
	}
	if art.Version != statsCacheVersion || art.Program != program ||
		art.Corpus != fp || art.Path != pathCfg || art.Analysis == nil {
		return nil, nil, false
	}
	res := &pathid.Result{
		Skeleton: art.Skeleton,
		Detours:  art.Detours,
	}
	for _, sc := range art.Candidates {
		cp := &pathid.CandidatePath{AvgScore: sc.AvgScore, Detours: sc.Detours}
		for _, n := range sc.Nodes {
			node := pathid.PathNode{Loc: n.Loc}
			if n.Pred >= 0 {
				if n.Pred >= len(art.Analysis.Predicates) {
					return nil, nil, false
				}
				node.Pred = art.Analysis.Predicates[n.Pred]
			}
			cp.Nodes = append(cp.Nodes, node)
		}
		res.Candidates = append(res.Candidates, cp)
	}
	return art.Analysis, res, true
}

// saveStatsCache memoizes a freshly derived stats phase, atomically
// (temp+rename) so a crash can only leave the previous artifact or none.
// Best-effort: a save failure costs the next run a recompute, nothing else.
func saveStatsCache(dir string, fp uint64, program string, pathCfg pathid.Config,
	analysis *stats.Analysis, res *pathid.Result) {
	predIdx := make(map[*stats.Predicate]int, len(analysis.Predicates))
	for i, p := range analysis.Predicates {
		predIdx[p] = i
	}
	art := statsCacheArtifact{
		Version:  statsCacheVersion,
		Program:  program,
		Corpus:   fp,
		Path:     pathCfg,
		Analysis: analysis,
		Skeleton: res.Skeleton,
		Detours:  res.Detours,
	}
	for _, cp := range res.Candidates {
		sc := savedCandidate{AvgScore: cp.AvgScore, Detours: cp.Detours}
		for _, n := range cp.Nodes {
			idx := -1
			if n.Pred != nil {
				i, ok := predIdx[n.Pred]
				if !ok {
					// A candidate references a predicate outside the
					// analysis (should not happen): don't persist a
					// partial view.
					return
				}
				idx = i
			}
			sc.Nodes = append(sc.Nodes, savedNode{Loc: n.Loc, Pred: idx})
		}
		art.Candidates = append(art.Candidates, sc)
	}
	blob, err := json.Marshal(&art)
	if err != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	_ = durable.WriteFile(filepath.Join(dir, statsCacheName), func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}
