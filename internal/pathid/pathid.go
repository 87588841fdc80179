// Package pathid implements the paper's Candidate Path Constructor (§V-B,
// §VI-B): it mines location transitions from faulty-run logs with
// association-rule confidence µ(ei,ej) = o(ei→ej)/o(ei) (Eq. 3), builds a
// transition graph, extracts the skeleton (the entry→failure path with the
// highest average predicate score), identifies detours that visit
// high-score predicates off the skeleton, and joins them into a ranked
// list of candidate vulnerable paths.
package pathid

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes path construction.
type Config struct {
	// MinConfidence filters transitions: edges with µ below it are
	// considered statistically insignificant. Zero means
	// DefaultMinConfidence.
	MinConfidence float64
	// MinSupport requires at least this many observed occurrences of a
	// transition (default 1).
	MinSupport int
	// DetourScoreMin is the minimum predicate score for a location to
	// attract a detour (default 0.5).
	DetourScoreMin float64
	// MaxCandidates caps the emitted candidate list (default 12).
	MaxCandidates int
	// MaxSkeletonPaths caps the acyclic-path enumeration (default 4096).
	MaxSkeletonPaths int
}

// Defaults.
const (
	DefaultMinConfidence    = 0.02
	DefaultDetourScoreMin   = 0.5
	DefaultMaxCandidates    = 12
	DefaultMaxSkeletonPaths = 4096
)

func (c Config) minConfidence() float64 {
	if c.MinConfidence <= 0 {
		return DefaultMinConfidence
	}
	return c.MinConfidence
}

func (c Config) minSupport() int {
	if c.MinSupport <= 0 {
		return 1
	}
	return c.MinSupport
}

func (c Config) detourScoreMin() float64 {
	if c.DetourScoreMin <= 0 {
		return DefaultDetourScoreMin
	}
	return c.DetourScoreMin
}

func (c Config) maxCandidates() int {
	if c.MaxCandidates <= 0 {
		return DefaultMaxCandidates
	}
	return c.MaxCandidates
}

func (c Config) maxSkeletonPaths() int {
	if c.MaxSkeletonPaths <= 0 {
		return DefaultMaxSkeletonPaths
	}
	return c.MaxSkeletonPaths
}

// Edge is a mined transition with its confidence.
type Edge struct {
	From, To   trace.Location
	Count      int
	Confidence float64
}

// Graph is the dynamic control-transfer graph reconstructed from faulty
// logs.
type Graph struct {
	Nodes []trace.Location
	// Succ maps a node to its significant successors (sorted for
	// determinism).
	Succ map[trace.Location][]Edge
	// Entry nodes have no incoming significant edge; Failure is the most
	// frequent final location of faulty runs.
	Entries []trace.Location
	Failure trace.Location
}

// BuildGraph mines transitions from the faulty runs of the corpus.
// Locations are interned to dense ids once per corpus, so transition
// counting keys on [2]int32 (string keys cost two allocations per logged
// transition — the dominant cost of graph construction on large corpora).
// The counting lives in TransitionCounter (stream.go), shared with the
// streaming path.
func BuildGraph(corpus *trace.Corpus, cfg Config) *Graph {
	tc := NewTransitionCounter()
	for i := range corpus.Runs {
		tc.Add(&corpus.Runs[i])
	}
	return tc.Graph(cfg)
}

// PathNode pairs a location with the best predicate at that location (nil
// when none scores high enough to gate on).
type PathNode struct {
	Loc  trace.Location
	Pred *stats.Predicate
}

// CandidatePath is one ranked candidate vulnerable path.
type CandidatePath struct {
	Nodes    []PathNode
	AvgScore float64
	// Detours records how many detours were joined into this candidate.
	Detours int
}

// Len returns the node count (Fig. 7's path length).
func (p *CandidatePath) Len() int { return len(p.Nodes) }

// String renders the candidate compactly: L1 -> L2 -> ...
func (p *CandidatePath) String() string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = n.Loc.String()
	}
	return strings.Join(parts, " -> ")
}

// DetourType classifies a detour by its skeleton indices (§VI-B).
type DetourType int

// Detour types: forward detours replace a skeleton segment; backward and
// self detours introduce cycles; spur detours visit a high-score location
// with no sampled transition back to the skeleton (common near the failure
// point, where faulty logs end abruptly) and rejoin it in place.
const (
	DetourForward DetourType = iota + 1
	DetourBackward
	DetourSelf
	DetourSpur
)

// String names the detour type.
func (t DetourType) String() string {
	switch t {
	case DetourForward:
		return "forward"
	case DetourBackward:
		return "backward"
	case DetourSelf:
		return "self"
	case DetourSpur:
		return "spur"
	default:
		return fmt.Sprintf("DetourType(%d)", int(t))
	}
}

// Detour is a path segment branching off the skeleton to visit a
// high-score predicate location and returning to the skeleton.
type Detour struct {
	FromIdx, ToIdx int // skeleton indices
	Via            []trace.Location
	Type           DetourType
	Score          float64
}

// Result is the full output of candidate-path construction.
type Result struct {
	Graph      *Graph
	Skeleton   []trace.Location
	Detours    []Detour
	Candidates []*CandidatePath
}

// Build runs the complete §V-B pipeline over a corpus and its predicate
// analysis.
func Build(corpus *trace.Corpus, analysis *stats.Analysis, cfg Config) (*Result, error) {
	return BuildFromGraph(BuildGraph(corpus, cfg), analysis, cfg)
}

// BuildFromGraph runs skeleton extraction, detour identification, and
// candidate joining on an already-mined transition graph (the steps after
// Eq. 3). It is the shared back half of Build and BuildStream.
func BuildFromGraph(g *Graph, analysis *stats.Analysis, cfg Config) (*Result, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("pathid: no faulty-run locations in corpus")
	}
	scores := indexScores(analysis)
	skeleton := findSkeleton(g, scores, cfg)
	if len(skeleton) == 0 {
		return nil, fmt.Errorf("pathid: no entry-to-failure path in transition graph")
	}
	detours := findDetours(g, analysis, scores, skeleton, cfg)
	candidates := joinCandidates(skeleton, detours, analysis, scores, cfg)
	return &Result{Graph: g, Skeleton: skeleton, Detours: detours, Candidates: candidates}, nil
}

// findSkeleton enumerates acyclic entry→failure paths and returns the one
// with the largest average node score (step 1 of §V-B).
func findSkeleton(g *Graph, scores scoreIndex, cfg Config) []trace.Location {
	entries := g.Entries
	if len(entries) == 0 {
		// Cyclic graph with no pure entry: fall back to the most common
		// convention (main():enter) or any node.
		mainEnter := trace.Location{Func: "main", Kind: trace.EventEnter}
		for _, n := range g.Nodes {
			if n == mainEnter {
				entries = []trace.Location{n}
				break
			}
		}
		if len(entries) == 0 {
			entries = g.Nodes[:1]
		}
	}
	var best []trace.Location
	bestScore := -1.0
	budget := cfg.maxSkeletonPaths()

	var path []trace.Location
	onPath := make(map[trace.Location]bool)
	var dfs func(cur trace.Location)
	dfs = func(cur trace.Location) {
		if budget <= 0 {
			return
		}
		path = append(path, cur)
		onPath[cur] = true
		defer func() {
			path = path[:len(path)-1]
			delete(onPath, cur)
		}()
		if cur == g.Failure {
			budget--
			score := scores.avg(path)
			if score > bestScore || (score == bestScore && better(path, best)) {
				bestScore = score
				best = append([]trace.Location(nil), path...)
			}
			return
		}
		for _, e := range g.Succ[cur] {
			if onPath[e.To] {
				continue
			}
			dfs(e.To)
			if budget <= 0 {
				return
			}
		}
	}
	for _, entry := range entries {
		dfs(entry)
	}
	return best
}

// scoreIndex maps each location that hosts a predicate to the score of
// its best one: Analysis.LocationScore, answered by one lookup instead of
// a scan of the ranked predicates.
type scoreIndex map[trace.Location]float64

// indexScores builds the score index of an analysis.
func indexScores(analysis *stats.Analysis) scoreIndex {
	scores := make(scoreIndex)
	for _, p := range analysis.Predicates { // ranked, so the first at a location is its best
		if _, ok := scores[p.Loc]; !ok {
			scores[p.Loc] = p.Score
		}
	}
	return scores
}

// avg returns the average node score of path, summed in path order.
func (scores scoreIndex) avg(path []trace.Location) float64 {
	if len(path) == 0 {
		return 0
	}
	total := 0.0
	for _, loc := range path {
		total += scores[loc]
	}
	return total / float64(len(path))
}

// better is a deterministic tie-break: prefer shorter paths, then
// lexicographic order.
func better(a, b []trace.Location) bool {
	if b == nil {
		return true
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i].String() < b[i].String()
		}
	}
	return false
}

// findDetours locates path segments from a skeleton node through each
// high-score off-skeleton predicate location back to the skeleton (step 2
// of §V-B), classifying them by start/end indices. When a location hosts
// multiple same-type detours, the highest average-score one is kept
// (§VI-B).
func findDetours(g *Graph, analysis *stats.Analysis, scores scoreIndex, skeleton []trace.Location, cfg Config) []Detour {
	onSkel := make(map[trace.Location]int, len(skeleton))
	for i, loc := range skeleton {
		onSkel[loc] = i
	}
	// Collect target locations: high-score predicates off the skeleton.
	seen := make(map[trace.Location]bool)
	var targets []trace.Location
	for _, p := range analysis.Predicates {
		if p.Score < cfg.detourScoreMin() {
			break // ranked list: everything after is lower
		}
		if _, ok := onSkel[p.Loc]; ok {
			continue
		}
		if !seen[p.Loc] && graphHasNode(g, p.Loc) {
			seen[p.Loc] = true
			targets = append(targets, p.Loc)
		}
	}

	best := make(map[string]Detour) // key: fromIdx/toIdx/type → best-score detour
	for _, tgt := range targets {
		out, fromIdx, ok1 := shortestFromSkeleton(g, onSkel, tgt)
		if !ok1 {
			continue
		}
		back, toIdx, ok2 := shortestToSkeleton(g, onSkel, tgt)
		via := make([]trace.Location, 0, len(out)+len(back)+1)
		via = append(via, out...)
		via = append(via, tgt)
		d := Detour{FromIdx: fromIdx, Via: via, Score: 0}
		if ok2 {
			d.Via = append(d.Via, back...)
			d.ToIdx = toIdx
			switch {
			case fromIdx < toIdx:
				d.Type = DetourForward
			case fromIdx > toIdx:
				d.Type = DetourBackward
			default:
				d.Type = DetourSelf
			}
		} else {
			// One-way spur: the logs never observed a transition back
			// (typical when the target sits just before the failure
			// point); the candidate path resumes at the origin.
			d.ToIdx = fromIdx
			d.Type = DetourSpur
		}
		d.Score = scores.avg(d.Via)
		key := fmt.Sprintf("%d/%d/%d", d.FromIdx, d.ToIdx, d.Type)
		if prev, ok := best[key]; !ok || d.Score > prev.Score {
			best[key] = d
		}
	}
	detours := make([]Detour, 0, len(best))
	for _, d := range best {
		detours = append(detours, d)
	}
	sort.Slice(detours, func(i, j int) bool {
		if detours[i].Score != detours[j].Score {
			return detours[i].Score > detours[j].Score
		}
		if detours[i].FromIdx != detours[j].FromIdx {
			return detours[i].FromIdx < detours[j].FromIdx
		}
		return detours[i].ToIdx < detours[j].ToIdx
	})
	return detours
}

func graphHasNode(g *Graph, loc trace.Location) bool {
	for _, n := range g.Nodes {
		if n == loc {
			return true
		}
	}
	return false
}

// shortestFromSkeleton finds the shortest path from any skeleton node to
// tgt (excluding endpoints), returning intermediate nodes and the skeleton
// index.
func shortestFromSkeleton(g *Graph, onSkel map[trace.Location]int, tgt trace.Location) ([]trace.Location, int, bool) {
	// Reverse BFS from tgt until a skeleton node is reached.
	type item struct {
		loc  trace.Location
		path []trace.Location // reversed intermediates
	}
	pred := reverseAdj(g)
	visited := map[trace.Location]bool{tgt: true}
	queue := []item{{loc: tgt}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range pred[cur.loc] {
			if idx, ok := onSkel[p]; ok {
				// Reverse the intermediate list.
				out := make([]trace.Location, len(cur.path))
				for i, l := range cur.path {
					out[len(cur.path)-1-i] = l
				}
				return out, idx, true
			}
			if visited[p] {
				continue
			}
			visited[p] = true
			np := append(append([]trace.Location(nil), cur.path...), p)
			queue = append(queue, item{loc: p, path: np})
		}
	}
	return nil, 0, false
}

// shortestToSkeleton finds the shortest path from tgt back to any skeleton
// node.
func shortestToSkeleton(g *Graph, onSkel map[trace.Location]int, tgt trace.Location) ([]trace.Location, int, bool) {
	type item struct {
		loc  trace.Location
		path []trace.Location
	}
	visited := map[trace.Location]bool{tgt: true}
	queue := []item{{loc: tgt}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Succ[cur.loc] {
			if idx, ok := onSkel[e.To]; ok {
				return cur.path, idx, true
			}
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			np := append(append([]trace.Location(nil), cur.path...), e.To)
			queue = append(queue, item{loc: e.To, path: np})
		}
	}
	return nil, 0, false
}

// reverseAdj builds the predecessor adjacency of the graph.
func reverseAdj(g *Graph) map[trace.Location][]trace.Location {
	pred := make(map[trace.Location][]trace.Location)
	for from, es := range g.Succ {
		for _, e := range es {
			pred[e.To] = append(pred[e.To], from)
		}
	}
	for to := range pred {
		ps := pred[to]
		sort.Slice(ps, func(i, j int) bool { return ps[i].String() < ps[j].String() })
	}
	return pred
}

// joinCandidates assembles ranked candidates (step 3 of §V-B): the
// skeleton with all detours, the skeleton with each single detour (by
// descending score), and the bare skeleton, deduplicated and capped.
func joinCandidates(skeleton []trace.Location, detours []Detour, analysis *stats.Analysis, scores scoreIndex, cfg Config) []*CandidatePath {
	var out []*CandidatePath
	seen := make(map[string]bool)
	add := func(locs []trace.Location, nDetours int) {
		cp := &CandidatePath{Detours: nDetours}
		for _, loc := range locs {
			cp.Nodes = append(cp.Nodes, PathNode{Loc: loc, Pred: analysis.BestAt(loc)})
		}
		cp.AvgScore = scores.avg(locs)
		key := cp.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, cp)
	}

	if len(detours) > 0 {
		add(splice(skeleton, detours), len(detours))
	}
	for _, d := range detours {
		add(splice(skeleton, []Detour{d}), 1)
	}
	add(skeleton, 0)

	// Rank by average predicate score, then by more detours (richer
	// guidance first), then deterministically.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].AvgScore != out[j].AvgScore {
			return out[i].AvgScore > out[j].AvgScore
		}
		if out[i].Detours != out[j].Detours {
			return out[i].Detours > out[j].Detours
		}
		return out[i].String() < out[j].String()
	})
	if len(out) > cfg.maxCandidates() {
		out = out[:cfg.maxCandidates()]
	}
	return out
}

// splice inserts detours into the skeleton. Forward detours replace the
// skipped skeleton segment; backward and self detours are inserted after
// their origin, revisiting skeleton nodes (cycles are allowed on candidate
// paths).
func splice(skeleton []trace.Location, detours []Detour) []trace.Location {
	// Process in ascending FromIdx so indices stay valid relative to the
	// original skeleton; build segment lists keyed by origin index.
	inserts := make(map[int][]Detour)
	for _, d := range detours {
		inserts[d.FromIdx] = append(inserts[d.FromIdx], d)
	}
	var out []trace.Location
	i := 0
	for i < len(skeleton) {
		out = append(out, skeleton[i])
		advanced := false
		for _, d := range inserts[i] {
			out = append(out, d.Via...)
			if d.Type == DetourSpur {
				// One-way spur: visit and resume the skeleton in place.
				continue
			}
			if d.Type == DetourForward && !advanced {
				// Skip the replaced skeleton segment; resume at ToIdx.
				out = append(out, skeleton[d.ToIdx])
				i = d.ToIdx
				advanced = true
			} else {
				// Cycle back onto the skeleton at ToIdx (already emitted
				// earlier or equal); just note the revisit.
				out = append(out, skeleton[d.ToIdx])
				if d.ToIdx != i {
					// Re-walk forward from ToIdx to the current node so the
					// path remains connected in the graph.
					for k := d.ToIdx + 1; k <= i; k++ {
						out = append(out, skeleton[k])
					}
				}
			}
		}
		i++
	}
	return out
}
