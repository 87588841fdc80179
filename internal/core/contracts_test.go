package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	corpusstore "repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/solver/persist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// contractCorpus is the corpus every contract runs on.
var contractCorpus = workload.Options{SampleRate: 0.3, Seed: 1}

// memoConfigs are the configurations whose runs are pure functions of
// (app, corpus): each runs once per TestEngineContracts invocation however
// many contracts compare it. The label "oracle" names the paper's
// sequential loop (verifySequential) with the default Config.
var memoConfigs = map[string]Config{
	"sequential":                 {},
	"parallel-2":                 {Parallel: 2},
	"parallel-4":                 {Parallel: 4},
	"parallel-8":                 {Parallel: 8},
	"workers-1":                  {Workers: 1},
	"workers-2":                  {Workers: 2},
	"workers-4":                  {Workers: 4},
	"workers-2-parallel-2":       {Workers: 2, Parallel: 2},
	"workers-4-parallel-2":       {Workers: 4, Parallel: 2},
	"dispatch-local-only":        {Dispatch: true},
	"summaries":                  {Summaries: true},
	"no-shared-cache":            {DisableSharedCache: true},
	"parallel-4-no-shared-cache": {Parallel: 4, DisableSharedCache: true},
}

// goldenRow is one app's recorded detection at rate 0.3, seed 1.
type goldenRow struct {
	token                        string
	steps                        int64
	paths                        int
	hits, misses, checks, reused int
}

// golden is the reference column of the GoldenDigests contract: each app's
// DigestToken, TotalSteps, TotalPaths, cache hits, cache misses, solver
// checks and reused components under four configurations. The cache
// columns pin the executor's constraint-check path: every component of
// every query is counted, as a hit, a miss, or a component answered from
// its record, so a change to how path conditions are split or keyed moves
// them. The hits column is CacheHits + CompReused — what the hits were
// before components kept records — and reused is CompReused alone. Only
// path conditions of more than 16 components keep records, and only at
// epoch width 1, so the workers-2 rows and the short-path apps reuse
// nothing. The
// engine contracts compare engines with each other within one build; this
// table also catches a change that shifts every engine together. The
// values were recorded from the separate sequential, parallel and dispatch
// engines the slot pool replaced, so the pool must reproduce them exactly.
// Workers >= 1 widens the executor's epochs from one state to several, so
// its counters (and, on msgtool, detection) legitimately differ from the
// one-state loop's (DESIGN.md §11). The workers-2 path counts include the
// faulting path, which the run that stops on it completes like every other
// path.
var golden = map[string]map[string]goldenRow{
	"polymorph": {
		"sequential":          {"0f42d7cd2c3f896b", 9482, 2, 7, 13, 13, 0},
		"parallel-2":          {"0f42d7cd2c3f896b", 9482, 2, 7, 13, 13, 0},
		"workers-2":           {"0f42d7cd2c3f896b", 37186, 3, 9, 31, 31, 0},
		"dispatch-local-only": {"0f42d7cd2c3f896b", 9482, 2, 7, 13, 13, 0},
	},
	"ctree": {
		"sequential":          {"4defe7ff3b81aa9a", 1205, 1, 10, 8, 8, 0},
		"parallel-2":          {"4defe7ff3b81aa9a", 1205, 1, 10, 8, 8, 0},
		"workers-2":           {"4defe7ff3b81aa9a", 4533, 1, 358, 93, 93, 0},
		"dispatch-local-only": {"4defe7ff3b81aa9a", 1205, 1, 10, 8, 8, 0},
	},
	"thttpd": {
		"sequential":          {"26f2b6e639bca9d2", 49641, 1, 574522, 2471, 2471, 573815},
		"parallel-2":          {"26f2b6e639bca9d2", 49641, 1, 574522, 2471, 2471, 573815},
		"workers-2":           {"26f2b6e639bca9d2", 309300, 1, 2867735, 13158, 13158, 0},
		"dispatch-local-only": {"26f2b6e639bca9d2", 49641, 1, 574522, 2471, 2471, 573815},
	},
	"grep": {
		"sequential":          {"d83b6872c40dff5c", 1278443, 1, 369059, 165, 165, 338849},
		"parallel-2":          {"d83b6872c40dff5c", 1278443, 1, 369059, 165, 165, 338849},
		"workers-2":           {"d83b6872c40dff5c", 1277825, 1, 367516, 500, 500, 0},
		"dispatch-local-only": {"d83b6872c40dff5c", 1278443, 1, 369059, 165, 165, 338849},
	},
	"msgtool": {
		"sequential":          {"1d791072cc29b364", 1602, 2, 5, 10, 10, 0},
		"parallel-2":          {"1d791072cc29b364", 1602, 2, 5, 10, 10, 0},
		"workers-2":           {"fc6ccb0e527f909a", 1355, 5, 26, 22, 22, 0},
		"dispatch-local-only": {"1d791072cc29b364", 1602, 2, 5, 10, 10, 0},
	},
	"billing": {
		"sequential":          {"7dad683cba7691f4", 202, 1, 2, 8, 8, 0},
		"parallel-2":          {"7dad683cba7691f4", 202, 1, 2, 8, 8, 0},
		"workers-2":           {"7dad683cba7691f4", 297, 3, 2, 14, 14, 0},
		"dispatch-local-only": {"7dad683cba7691f4", 202, 1, 2, 8, 8, 0},
	},
}

// contract is one row of the engine-contract matrix: on every app it
// covers, each compared run must hold every relation with the reference.
type contract struct {
	name string
	apps []string // nil: every app, apps.All() plus apps.Extras()
	// ref labels the reference run: a memoized configuration, "oracle", or
	// "" for the golden column.
	ref  string
	rows []string // memoized configurations compared with ref
	// fresh produces the stateful rows, which run afresh on every use.
	fresh func(*testing.T, fixture) []row
	rels  []relation
	// sweep checks a property of every app's rows taken together.
	sweep func(*testing.T, []row)
}

// row is one compared run.
type row struct {
	label string
	rep   *Report
}

// fixture is what a fresh row runs on: the app, its memoized corpus and
// the contract's reference run.
type fixture struct {
	app    *apps.App
	corpus *trace.Corpus
	ref    *Report
}

// run is the pipeline on the fixture's app and corpus.
func (f fixture) run(t *testing.T, cfg Config) *Report {
	t.Helper()
	cfg.Spec = f.app.Spec
	rep, err := runCorpus(context.Background(), f.app.Program(), f.corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// relation is one property a compared run shares with its reference (nil
// for the golden column). Relations only read the reports.
type relation func(t *testing.T, ref *Report, got row)

// engineContracts is the matrix. Adding a configuration is one entry in
// memoConfigs (or a fresh function) plus its label in a row; adding an app
// covers it under every contract whose apps are nil.
var engineContracts = []contract{
	{name: "GoldenDigests",
		rows: []string{"sequential", "parallel-2", "workers-2", "dispatch-local-only"},
		rels: []relation{pinned}},
	// The slot pool with several local slots reproduces the paper's loop.
	{name: "ParallelMatchesSequential", ref: "oracle",
		rows: []string{"parallel-4"},
		rels: []relation{sameOutcomes, sameSite}},
	// The shared solver cache is a wall-clock optimization only. Two apps
	// keep CI's four race-detector repetitions affordable: under
	// parallel-4, polymorph's rank 1 wins while ranks 2-4 run and are
	// cancelled, and thttpd's one candidate makes the most cache lookups
	// of any app (574k hits).
	{name: "SharedCacheDeterminism", apps: []string{"polymorph", "thttpd"}, ref: "sequential",
		rows: []string{"no-shared-cache", "parallel-4", "parallel-4-no-shared-cache"},
		rels: []relation{sameOutcomes, sameCacheTraffic}},
	// thttpd only: with one candidate, seven of eight slots stay idle.
	// ParallelMatchesSequential covers slot counts on every app.
	{name: "ParallelWorkerCountInvariance", apps: []string{"thttpd"}, ref: "parallel-2",
		rows: []string{"parallel-8"},
		rels: []relation{sameOutcomes}},
	// The epoch engine's results depend on EpochWidth, never on the
	// worker count.
	{name: "ParallelFrontier", ref: "workers-1",
		rows: []string{"workers-4"},
		rels: []relation{sameOutcomes, sameSite}},
	// In-candidate workers compose with cross-candidate slots
	// (effectiveWorkers divides Workers among them). thttpd only: at 309k
	// steps per run, its workers rows are the costliest in the matrix.
	{name: "ParallelFrontierComposes", apps: []string{"thttpd"}, ref: "workers-2",
		rows: []string{"workers-2-parallel-2", "workers-4-parallel-2"},
		rels: []relation{sameOutcomes}},
	// Summaries under a full-coverage scope change effort, never findings.
	{name: "Summarize", ref: "sequential",
		rows: []string{"summaries"},
		rels: []relation{sameDigest}},
	// grep only: the one app whose summary cache serves thousands of
	// lookups, shared by concurrent attempts and frontier workers.
	{name: "SummaryCacheShared", apps: []string{"grep"}, ref: "sequential",
		fresh: concurrentSummaries,
		rels:  []relation{sameDigest}},
	{name: "Dispatch", ref: "oracle",
		rows:  []string{"sequential", "dispatch-local-only"},
		fresh: dispatchWorkers,
		rels:  []relation{sameDigest, sameOutcomes},
		sweep: someUnitStolen},
	{name: "Live", ref: "sequential",
		fresh: liveScraped,
		rels:  []relation{sameDigest}},
	{name: "PersistColdWarm", ref: "sequential",
		fresh: coldWarmPoisoned,
		rels:  []relation{sameDigest}},
	// Two apps: internal/corpus pins the streaming statistics on every
	// app, so this row checks end-to-end reports on a four-candidate
	// corpus (polymorph) and on the largest predicate set (thttpd, 517).
	{name: "Store", apps: []string{"polymorph", "thttpd"}, ref: "sequential",
		fresh: storeBacked,
		rels:  []relation{sameCorpusStats, sameOutcomes, sameSite}},
	{name: "OffPathHavoc", ref: "sequential",
		fresh: offPathHavoc,
		rels:  []relation{sameDigest}},
}

// TestEngineContracts pins StatSym's engine contracts: the answer must not
// depend on how the Fig. 5 rank-order loop is executed. Subtests are named
// <contract>/<app>; besides the contract's relations, every report a
// subtest sees must replay its witness to the reported fault. Runs are
// memoized per invocation, so -count=N reruns every contract N times.
func TestEngineContracts(t *testing.T) {
	m := newRunMemo()
	for _, c := range engineContracts {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			var swept []row
			if c.sweep != nil {
				t.Cleanup(func() { c.sweep(t, swept) })
			}
			names := c.apps
			if names == nil {
				names = m.names
			}
			for _, name := range names {
				t.Run(name, func(t *testing.T) {
					// Apps run in parallel, contracts in turn: two
					// contracts' thttpd and grep rows at once would raise
					// the package's peak memory by half.
					t.Parallel()
					rows := m.check(t, c, name)
					mu.Lock()
					swept = append(swept, rows...)
					mu.Unlock()
				})
			}
		})
	}
}

// runMemo holds one invocation's apps, corpora and memoized runs.
type runMemo struct {
	names   []string
	apps    map[string]*apps.App
	corpora onceMap[corpusKey, *trace.Corpus]
	runs    onceMap[runKey, *Report]
}

type corpusKey struct {
	app  string
	opts workload.Options
}

type runKey struct {
	corpusKey
	label string
}

// onceMap computes each key's value once, on first use; concurrent
// callers of the same key wait for that computation.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() (V, error)
}

func (o *onceMap[K, V]) get(key K, compute func() (V, error)) (V, error) {
	o.mu.Lock()
	get, ok := o.m[key]
	if !ok {
		if o.m == nil {
			o.m = map[K]func() (V, error){}
		}
		get = sync.OnceValues(compute)
		o.m[key] = get
	}
	o.mu.Unlock()
	return get()
}

func newRunMemo() *runMemo {
	m := &runMemo{apps: map[string]*apps.App{}}
	for _, app := range append(apps.All(), apps.Extras()...) {
		m.names = append(m.names, app.Name)
		m.apps[app.Name] = app
	}
	return m
}

func (m *runMemo) corpus(name string) (*trace.Corpus, error) {
	return m.corpora.get(corpusKey{name, contractCorpus}, func() (*trace.Corpus, error) {
		return workload.BuildCorpus(m.apps[name], contractCorpus)
	})
}

func (m *runMemo) run(name, label string) (*Report, error) {
	return m.runs.get(runKey{corpusKey{name, contractCorpus}, label}, func() (*Report, error) {
		app := m.apps[name]
		corpus, err := m.corpus(name)
		if err != nil {
			return nil, err
		}
		if label == "oracle" {
			return runSequentialOracle(app.Program(), corpus, Config{Spec: app.Spec})
		}
		cfg, ok := memoConfigs[label]
		if !ok {
			return nil, fmt.Errorf("no memoized configuration %q", label)
		}
		cfg.Spec = app.Spec
		return runCorpus(context.Background(), app.Program(), corpus, cfg)
	})
}

// check runs contract c on one app and returns the compared rows.
func (m *runMemo) check(t *testing.T, c contract, name string) []row {
	t.Helper()
	app := m.apps[name]
	corpus, err := m.corpus(name)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Report
	if c.ref != "" {
		if ref, err = m.run(name, c.ref); err != nil {
			t.Fatalf("%s: %v", c.ref, err)
		}
		replays(t, app, row{c.ref, ref})
	}
	var rows []row
	for _, label := range c.rows {
		rep, err := m.run(name, label)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rows = append(rows, row{label, rep})
	}
	if c.fresh != nil {
		rows = append(rows, c.fresh(t, fixture{app, corpus, ref})...)
	}
	for _, r := range rows {
		replays(t, app, r)
		holds(t, ref, r, c.rels...)
	}
	return rows
}

// appCorpus returns the named app and its corpus at contractCorpus.
func appCorpus(t *testing.T, name string) (*apps.App, *trace.Corpus) {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, contractCorpus)
	if err != nil {
		t.Fatal(err)
	}
	return app, corpus
}

// holds applies each relation to got against ref.
func holds(t *testing.T, ref *Report, got row, rels ...relation) {
	t.Helper()
	for _, rel := range rels {
		rel(t, ref, got)
	}
}

// replays requires a reported witness to run on the concrete VM to the
// reported fault kind in the reported function.
func replays(t *testing.T, app *apps.App, r row) {
	t.Helper()
	v := r.rep.Vuln
	if v == nil {
		return
	}
	if v.Witness == nil {
		t.Errorf("%s: %s reported without a witness", r.label, v.Site())
		return
	}
	res, err := interp.Run(app.Program(), v.Witness, interp.Config{})
	if err != nil {
		t.Errorf("%s: witness replay: %v", r.label, err)
		return
	}
	if res.Fault != v.Kind || res.FaultFunc != v.Func {
		t.Errorf("%s: witness replays to %v in %q, reported %v in %q",
			r.label, res.Fault, res.FaultFunc, v.Kind, v.Func)
	}
}

// pinned: the golden column's digest token, steps, paths and solver-cache
// traffic (hits, misses, and checks summed over the candidates).
func pinned(t *testing.T, _ *Report, got row) {
	t.Helper()
	r := got.rep
	g := goldenRow{DigestToken(r), r.TotalSteps, r.TotalPaths, r.CacheHits + r.CompReused, r.CacheMisses, 0, r.CompReused}
	for _, c := range r.Candidates {
		g.checks += c.SolverChecks
	}
	if want := golden[r.Program][got.label]; g != want {
		t.Errorf("%s: got %+v, want %+v", got.label, g, want)
	}
}

// sameDigest: a byte-identical DetectionDigest.
func sameDigest(t *testing.T, ref *Report, got row) {
	t.Helper()
	if rd, gd := DetectionDigest(ref), DetectionDigest(got.rep); rd != gd {
		t.Errorf("%s: detection digest diverged:\n--- reference ---\n%s--- %s ---\n%s", got.label, rd, got.label, gd)
	}
}

// sameOutcomes: equal totals, CandidateUsed, and every CandidateOutcome
// field except the wall-clock Elapsed and SolverTime.
func sameOutcomes(t *testing.T, ref *Report, got row) {
	t.Helper()
	g := got.rep
	if g.Found() != ref.Found() || g.CandidateUsed != ref.CandidateUsed {
		t.Errorf("%s: found=%v used=%d, reference found=%v used=%d",
			got.label, g.Found(), g.CandidateUsed, ref.Found(), ref.CandidateUsed)
	}
	if g.TotalPaths != ref.TotalPaths || g.TotalSteps != ref.TotalSteps {
		t.Errorf("%s: totals diverged: reference (%d paths, %d steps), got (%d paths, %d steps)",
			got.label, ref.TotalPaths, ref.TotalSteps, g.TotalPaths, g.TotalSteps)
	}
	if len(g.Candidates) != len(ref.Candidates) {
		t.Errorf("%s: attempted candidates: reference %d, got %d", got.label, len(ref.Candidates), len(g.Candidates))
		return
	}
	for i := range ref.Candidates {
		r, c := ref.Candidates[i], g.Candidates[i]
		r.Elapsed, c.Elapsed = 0, 0
		r.SolverTime, c.SolverTime = 0, 0
		if r != c {
			t.Errorf("%s: candidate %d outcome diverged:\n  reference %+v\n  got       %+v", got.label, i+1, r, c)
		}
	}
}

// sameSite: the same fault site on the same verified path.
func sameSite(t *testing.T, ref *Report, got row) {
	t.Helper()
	r, g := ref.Vuln, got.rep.Vuln
	if r == nil || g == nil {
		if r != g {
			t.Errorf("%s: found=%v, reference found=%v", got.label, g != nil, r != nil)
		}
		return
	}
	if r.Site() != g.Site() {
		t.Errorf("%s: vulnerability %s, reference %s", got.label, g.Site(), r.Site())
	}
	if !slices.Equal(r.Path, g.Path) {
		t.Errorf("%s: verified path diverged:\n  reference %v\n  got       %v", got.label, r.Path, g.Path)
	}
}

// sameCacheTraffic: equal solver-cache hits, misses and reused components.
func sameCacheTraffic(t *testing.T, ref *Report, got row) {
	t.Helper()
	if g := got.rep; g.CacheHits != ref.CacheHits || g.CacheMisses != ref.CacheMisses || g.CompReused != ref.CompReused {
		t.Errorf("%s: cache hits/misses/reused %d/%d/%d, reference %d/%d/%d", got.label,
			g.CacheHits, g.CacheMisses, g.CompReused, ref.CacheHits, ref.CacheMisses, ref.CompReused)
	}
}

// sameCorpusStats: equal corpus statistics and ranked predicates.
func sameCorpusStats(t *testing.T, ref *Report, got row) {
	t.Helper()
	g := got.rep
	if g.Runs != ref.Runs || g.Locations != ref.Locations || g.Variables != ref.Variables {
		t.Errorf("%s: corpus stats (%d,%d,%d), reference (%d,%d,%d)",
			got.label, g.Runs, g.Locations, g.Variables, ref.Runs, ref.Locations, ref.Variables)
	}
	gp, rp := g.Analysis.Predicates, ref.Analysis.Predicates
	if len(gp) != len(rp) {
		t.Errorf("%s: predicate count %d, reference %d", got.label, len(gp), len(rp))
		return
	}
	for i := range rp {
		if *gp[i] != *rp[i] {
			t.Errorf("%s: predicate %d diverged:\n  reference %+v\n  got       %+v", got.label, i, *rp[i], *gp[i])
		}
	}
}

// concurrentSummaries: four pipeline runs at once, each in summarize mode
// with concurrent candidate attempts and frontier workers (Parallel x
// Workers) sharing its summary cache, the only mutable state those
// executors share.
func concurrentSummaries(t *testing.T, f fixture) []row {
	rows := make([]row, 4)
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{Spec: f.app.Spec, Summaries: true, Parallel: 2, Workers: 2}
			rows[i].label = fmt.Sprintf("summaries-parallel-2-workers-2/%d", i)
			rows[i].rep, errs[i] = runCorpus(context.Background(), f.app.Program(), f.corpus, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	return rows
}

// dispatchWorkers: remote slots served by one or two real workers on unix
// sockets, alone and mixed with two local slots.
func dispatchWorkers(t *testing.T, f fixture) []row {
	w1 := startCoreWorker(t, WorkerConfig{})
	w2 := startCoreWorker(t, WorkerConfig{})
	return []row{
		{"dispatch-1-worker", f.run(t, Config{Dispatch: true, WorkerAddrs: []string{w1}})},
		{"dispatch-2-workers", f.run(t, Config{Dispatch: true, WorkerAddrs: []string{w1, w2}})},
		{"dispatch-mixed", f.run(t, Config{Dispatch: true, WorkerAddrs: []string{w1, w2}, Parallel: 2})},
	}
}

// someUnitStolen: a worker ran at least one unit across the whole sweep
// (no single app has to steal: billing has one candidate).
func someUnitStolen(t *testing.T, rows []row) {
	for _, r := range rows {
		if r.rep.DispatchRemote > 0 {
			return
		}
	}
	t.Error("no unit was ever stolen by a worker across the whole dispatch sweep")
}

// liveScraped: the default run with a live introspection server attached
// (hub sink, 1ms progress interval) while one client polls /metrics and
// another holds a /progress stream open for the whole run. The server only
// reads atomics and feeds a never-blocking fan-out, so scraping cannot
// perturb the search.
func liveScraped(t *testing.T, f fixture) []row {
	hub := live.NewHub()
	o := obs.New(hub)
	o.Interval = time.Millisecond
	srv := live.NewServer(o, hub)
	srv.Tick = 5 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A client of its own, whose idle connections close before the server
	// shuts down, so Shutdown does not wait out its grace period on them.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	scrapeCtx, stopScrape := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for scrapeCtx.Err() == nil {
			if resp, err := client.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(scrapeCtx, "GET", fmt.Sprintf("http://%s/progress?tick=5ms", addr), nil)
		resp, err := client.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) // until scrapeCtx cancels
	}()

	rep, err := runCorpus(obs.NewContext(context.Background(), o), f.app.Program(), f.corpus, Config{Spec: f.app.Spec})
	stopScrape()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if hub.Events() == 0 {
		t.Error("hub saw no events — the observed run was not actually instrumented")
	}
	return []row{{"live-scraped", rep}}
}

// coldWarmPoisoned: a cold run fills a persistent solver cache, a warm run
// is served from it, and a third run reads it after a byte of every sealed
// segment was flipped. The cache may only change how long detection takes.
func coldWarmPoisoned(t *testing.T, f fixture) []row {
	cfg := Config{CacheDir: t.TempDir()}
	cold := f.run(t, cfg)
	if cold.PersistLoaded != 0 {
		t.Fatalf("cold run loaded %d entries from a fresh store", cold.PersistLoaded)
	}
	if cold.PersistSpilled == 0 {
		t.Fatal("cold run spilled nothing — warm start has nothing to work with")
	}
	if cold.StatsCached {
		t.Error("cold run claims a stats-cache replay")
	}

	warm := f.run(t, cfg)
	if warm.PersistLoaded == 0 {
		t.Error("warm run loaded nothing from the store")
	}
	if warm.PersistRejected != 0 {
		t.Errorf("warm run rejected %d entries from a clean store", warm.PersistRejected)
	}
	if !warm.StatsCached {
		t.Error("warm run did not replay the memoized stats phase")
	}

	// Re-verification must reject the damage and fall back to solving.
	segs, err := filepath.Glob(filepath.Join(cfg.CacheDir, "*"+persist.SegmentSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments to corrupt (err=%v)", err)
	}
	for _, seg := range segs {
		blob, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0xFF
		if err := os.WriteFile(seg, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	poisoned := f.run(t, cfg)
	// Every segment was damaged, so the full persisted set cannot have
	// loaded cleanly: either the damaged block rejected, or the load
	// aborted partway (a partial warm start only costs speed).
	if total := cold.PersistSpilled + warm.PersistSpilled; poisoned.PersistLoaded >= total && poisoned.PersistRejected == 0 {
		t.Errorf("corrupted store served all %d entries with no rejections", poisoned.PersistLoaded)
	}
	return []row{{"cold", cold}, {"warm", warm}, {"poisoned", poisoned}}
}

// storeBacked: the same corpus collected into a segment store and analysed
// from there by the streaming front-end. Tiny blocks and segments make the
// stream cross real block and segment boundaries.
func storeBacked(t *testing.T, f fixture) []row {
	store, err := corpusstore.Create(t.TempDir(), f.app.Name)
	if err != nil {
		t.Fatal(err)
	}
	wopts := corpusstore.Options{BlockBytes: 4 << 10, SegmentBytes: 32 << 10}
	if err := workload.BuildCorpusStoreCtx(context.Background(), f.app, contractCorpus, store, wopts); err != nil {
		t.Fatal(err)
	}
	if store.TotalRuns() != len(f.corpus.Runs) {
		t.Fatalf("store holds %d runs, in-memory corpus %d", store.TotalRuns(), len(f.corpus.Runs))
	}
	rep, err := RunJob(context.Background(), JobInputs{Prog: f.app.Program(), Spec: f.app.Spec, Store: store}, Config{Spec: f.app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	return []row{{"store", rep}}
}

// offPathHavoc: havoc every function the reference's verified path never
// enters. Havoc only over-approximates data, so scoping out code the
// vulnerable path does not run must keep the detection.
func offPathHavoc(t *testing.T, f fixture) []row {
	if f.ref.Vuln == nil {
		t.Fatal("the reference found no vulnerable path to scope around")
	}
	entered := map[string]bool{}
	for _, loc := range f.ref.Vuln.Path {
		entered[loc.Func] = true
	}
	prog := f.app.Program()
	scope := "all"
	for _, fn := range prog.Funcs {
		if !entered[fn.Name] && fn.Index != prog.InitIndex {
			scope += ",-" + fn.Name
		}
	}
	rep := f.run(t, Config{Scope: scope})
	t.Logf("scope %s: %d havocked calls", scope, rep.HavocCalls)
	return []row{{"off-path-havoc", rep}}
}
