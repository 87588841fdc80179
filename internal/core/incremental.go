package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/pathid"
	"repro/internal/solver/persist"
)

// IncrementalPlan describes what an incremental re-analysis will do before
// the pipeline runs: the function-set diff between the persistent cache's
// manifest and the freshly compiled program.
type IncrementalPlan struct {
	// Fresh reports that no usable prior manifest exists (first run, or
	// the directory is not a cache store yet): everything runs, nothing
	// is skipped.
	Fresh bool
	// Diff is the manifest-vs-program function diff (zero when Fresh).
	Diff persist.FnDiff
}

// PlanIncremental diffs the persistent cache at cacheDir against prog
// without mutating the store. A missing or not-yet-initialized directory
// yields a Fresh plan, not an error — the run simply starts cold.
func PlanIncremental(cacheDir string, prog *bytecode.Program) (*IncrementalPlan, error) {
	if !persist.CacheKind.StoreIn(cacheDir) {
		return &IncrementalPlan{Fresh: true}, nil
	}
	st, err := persist.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	if p := st.Program(); p != "" && p != prog.Name {
		return nil, fmt.Errorf("core: cache dir %s belongs to program %q, not %q", cacheDir, p, prog.Name)
	}
	old := st.Fns()
	if len(old) == 0 {
		return &IncrementalPlan{Fresh: true}, nil
	}
	return &IncrementalPlan{Diff: persist.DiffFns(old, persist.FnsOf(prog))}, nil
}

// Describe renders the plan as a one-line human summary for CLI output.
func (p *IncrementalPlan) Describe() string {
	if p.Fresh {
		return "incremental: no prior manifest, full run"
	}
	d := p.Diff
	if !d.HasChanges() {
		return fmt.Sprintf("incremental: no function changes (%d unchanged, %d renamed), full warm run",
			d.Unchanged, d.Renamed)
	}
	dirty := append([]string(nil), d.Dirty...)
	sort.Strings(dirty)
	const show = 5
	list := dirty
	more := ""
	if len(list) > show {
		more = fmt.Sprintf(" (+%d more)", len(list)-show)
		list = list[:show]
	}
	return fmt.Sprintf("incremental: %d dirty, %d removed, %d unchanged; re-running candidates crossing [%s]%s",
		len(d.Dirty), len(d.Removed), d.Unchanged, strings.Join(list, " "), more)
}

// filterCandidatesByDirty keeps candidates whose path crosses at least one
// dirty function and drops the rest: verdicts along unchanged-only paths
// were produced (and persisted) by the run that wrote the manifest, so only
// the delta needs re-verification. Returns the kept slice in original rank
// order plus the skipped count.
func filterCandidatesByDirty(cands []*pathid.CandidatePath, dirty []string) ([]*pathid.CandidatePath, int) {
	if len(dirty) == 0 {
		return cands, 0
	}
	dirtySet := make(map[string]bool, len(dirty))
	for _, name := range dirty {
		dirtySet[name] = true
	}
	kept := cands[:0:0]
	for _, c := range cands {
		if candidateCrosses(c, dirtySet) {
			kept = append(kept, c)
		}
	}
	return kept, len(cands) - len(kept)
}

// candidateCrosses reports whether any node of the candidate path sits in
// one of the named functions.
func candidateCrosses(c *pathid.CandidatePath, fns map[string]bool) bool {
	for i := range c.Nodes {
		if fns[c.Nodes[i].Loc.Func] {
			return true
		}
	}
	return false
}
