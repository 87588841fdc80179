package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dispatch"
	"repro/internal/obs/live"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/trace"
)

// Service-triage budgets: the statsymd load-test defaults.
const (
	serviceMaxStates = 256
	serviceMaxSteps  = 200_000
	serviceClients   = 2 // closed-loop callers, one connection each
	serviceRunners   = 2
	maxRefusals      = 100 // 429s tolerated per job before it counts as lost
)

// setupSeq numbers set-ups within the process, so repeated set-ups get
// fresh directories.
var setupSeq atomic.Int64

// serviceBench drives an in-process statsymd — the daemon's service core
// behind the same live HTTP server cmd/statsymd uses, two runners, and one
// in-process dispatch worker on a unix socket — with two closed-loop
// clients over loopback HTTP.
type serviceBench struct {
	dir  string // this set-up's data directory and worker socket
	data string

	svc  *service.Service
	rt   *live.Runtime
	base string

	worker     net.Listener
	workerAddr string
	workerDone chan struct{}

	apps    map[string]*apps.App
	progs   map[string]*bytecode.Program
	batches map[string][]byte // app → NDJSON of its named corpus
	runsIn  map[string]int    // app → runs in that batch

	runs    int                      // run() calls so far: names fresh corpora
	refTime map[string]time.Duration // in-process core.RunJob time per job key
}

func namedCorpus(app string) string { return "named-" + app }

func (b *serviceBench) setup(ctx context.Context, rec *Recorder, acc *layers) error {
	sid := rec.Begin("setup", 0, -1)
	defer rec.End(sid)
	b.dir = filepath.Join(".bench_build", "tmp", fmt.Sprintf("service-%d-%d", os.Getpid(), setupSeq.Add(1)))
	b.data = filepath.Join(b.dir, "data")
	if err := os.MkdirAll(b.data, 0o755); err != nil {
		return err
	}
	b.apps, b.progs = map[string]*apps.App{}, map[string]*bytecode.Program{}
	b.batches, b.runsIn = map[string][]byte{}, map[string]int{}
	for _, name := range serviceApps {
		app, prog, err := compileApp(name, rec, sid, acc)
		if err != nil {
			return err
		}
		b.apps[name], b.progs[name] = app, prog
	}

	b.workerAddr = "unix:" + filepath.Join(b.dir, "w.sock")
	l, err := dispatch.Listen(b.workerAddr)
	if err != nil {
		return err
	}
	b.worker, b.workerDone = l, make(chan struct{})
	go func() {
		defer close(b.workerDone)
		_ = dispatch.Serve(l, core.NewDispatchRunner(core.WorkerConfig{})) // returns when l closes
	}()

	svc, err := service.New(service.Config{
		DataDir: b.data, Runners: serviceRunners, WorkerAddrs: []string{b.workerAddr},
	})
	if err != nil {
		return err
	}
	rt, err := live.Init(live.Options{
		Binary: "statsymd", Listen: "127.0.0.1:0", Interval: time.Second, Metrics: true,
		ForceHub: true, Mounts: map[string]http.Handler{"/v1/": svc.Handler()},
	})
	if err != nil {
		return err
	}
	b.svc, b.rt, b.base = svc, rt, "http://"+rt.Addr()
	if err := svc.Start(rt.Obs()); err != nil {
		return err
	}

	// Named corpora: collected in-process, ingested over the API.
	c := newClient(b, "setup")
	defer c.close()
	for _, name := range serviceApps {
		src := newCorpusSource(b.apps[name], acc != nil)
		corp, err := src.collect(ctx, namedSeed, serviceRates[0], rec, sid, acc)
		if err != nil {
			return err
		}
		batch, err := ndjson(corp)
		if err != nil {
			return err
		}
		b.batches[name], b.runsIn[name] = batch, len(corp.Runs)
		r := c.ingest(Job{Seq: -1, App: name, Ingest: true}, namedCorpus(name), rec, sid, acc)
		if len(r.Fail) > 0 {
			return fmt.Errorf("ingest %s: %s", name, r.Fail[0])
		}
	}
	return nil
}

// ndjson encodes a corpus as the ingestion endpoint's input: one
// trace.Run per line.
func ndjson(c *trace.Corpus) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range c.Runs {
		if err := enc.Encode(&c.Runs[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// spec is the job spec a service-triage job submits.
func (j Job) spec(tenant string) service.JobSpec {
	s := service.JobSpec{
		Tenant:  tenant,
		App:     j.App,
		Budgets: service.Budgets{MaxStates: serviceMaxStates, MaxSteps: serviceMaxSteps},
	}
	if j.Named {
		s.Corpus = service.CorpusSpec{Name: namedCorpus(j.App)}
	} else {
		s.Corpus = service.CorpusSpec{Rate: j.Rate, Seed: j.Seed}
	}
	switch j.Engine {
	case "parallel":
		s.Parallel = 2
	case "epoch":
		s.Workers = 2
	case "dispatch":
		s.Dispatch = true
	}
	return s
}

// config is the core.Config the daemon builds for the job's spec
// (service.Service.execute), for the in-process reference run.
func (b *serviceBench) config(j Job) core.Config {
	s := j.spec("")
	cfg := core.Config{
		MaxStates: s.Budgets.MaxStates, PerCandidateMaxSteps: s.Budgets.MaxSteps,
		Parallel: s.Parallel, Workers: s.Workers,
	}
	if s.Dispatch {
		cfg.Dispatch, cfg.WorkerAddrs = true, []string{b.workerAddr}
	}
	return cfg
}

// run is the closed loop: two clients take the next operation from the
// list as soon as their previous one has completed.
func (b *serviceBench) run(ctx context.Context, jobs []Job, rec *Recorder, acc *layers) []*result {
	b.runs++
	out := make([]*result, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			defer c.close()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				j := jobs[k]
				if j.Ingest {
					name := fmt.Sprintf("fresh-%d-%d", b.runs, j.Seq)
					out[k] = c.ingest(j, name, rec, 0, acc)
				} else {
					out[k] = c.job(j, rec, acc)
				}
			}
		}(newClient(b, fmt.Sprintf("ci-%d", i)))
	}
	wg.Wait()
	return out
}

// client is one closed-loop caller with its own connection.
type client struct {
	b      *serviceBench
	tenant string
	tr     *http.Transport
	http   *http.Client
}

func newClient(b *serviceBench, tenant string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{b: b, tenant: tenant, tr: tr, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, url, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobReport is the GET /v1/jobs/{id}/report payload.
type jobReport struct {
	Job    service.Status `json:"job"`
	Digest string         `json:"detection_digest"`
	Report *report.Model  `json:"report"`
}

// job submits one job, follows its SSE stream until the daemon ends it
// at the terminal state, and fetches the report — what a CI caller that
// waits for its report does.
func (c *client) job(j Job, rec *Recorder, acc *layers) *result {
	r := &result{Job: j, Start: time.Now()}
	jid := rec.Begin("job", 0, j.Seq)
	defer rec.End(jid)
	if acc != nil {
		defer acc.addServiceJob(r)
	}
	body, err := json.Marshal(j.spec(c.tenant))
	if err != nil {
		r.fail("job %d (%s): %v", j.Seq, j.Key, err)
		return r
	}
	var st service.Status
	for {
		id := rec.Begin("submit", jid, j.Seq)
		ts := time.Now()
		code, data, err := c.do(http.MethodPost, c.b.base+"/v1/jobs", "application/json", body)
		r.SubmitDur = time.Since(ts)
		rec.End(id)
		if err == nil && code == http.StatusTooManyRequests && r.Refused < maxRefusals {
			r.Refused++
			continue
		}
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		if err != nil {
			r.fail("job %d (%s): %v", j.Seq, j.Key, err)
			return r
		}
		break
	}
	if _, _, err := c.do(http.MethodGet, c.b.base+"/v1/jobs/"+st.ID+"/events", "", nil); err != nil {
		r.fail("job %d (%s): events: %v", j.Seq, j.Key, err)
		return r
	}
	r.StreamEnd = time.Now()
	id := rec.Begin("report", jid, j.Seq)
	ts := time.Now()
	code, data, err := c.do(http.MethodGet, c.b.base+"/v1/jobs/"+st.ID+"/report", "", nil)
	r.ReportDur = time.Since(ts)
	rec.End(id)
	r.Latency = time.Since(r.Start)
	var rep jobReport
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("report: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err == nil && rep.Job.State != service.StateDone {
		err = fmt.Errorf("job ended %s: %s", rep.Job.State, rep.Job.Error)
	}
	if err == nil {
		err = r.fillStatus(rep)
	}
	if err != nil {
		r.fail("job %d (%s): %v", j.Seq, j.Key, err)
		return r
	}
	rec.Add("queue", jid, j.Seq, r.Submitted, r.Started)
	rec.Add("run", jid, j.Seq, r.Started, r.Finished)
	rec.Add("notify", jid, j.Seq, r.Finished, r.StreamEnd)
	return r
}

// fillStatus copies the daemon's timeline and detection into r.
func (r *result) fillStatus(rep jobReport) error {
	var err error
	parse := func(s string) time.Time {
		t, perr := time.Parse(time.RFC3339Nano, s)
		if perr != nil && err == nil {
			err = fmt.Errorf("status timestamp %q: %v", s, perr)
		}
		return t
	}
	r.Submitted, r.Started, r.Finished = parse(rep.Job.Submitted), parse(rep.Job.Started), parse(rep.Job.Finished)
	if err != nil {
		return err
	}
	if rep.Report == nil {
		return fmt.Errorf("report payload has no report")
	}
	r.Digest = rep.Digest
	r.Found = rep.Report.Found
	for _, a := range rep.Report.Attempts {
		r.Steps = append(r.Steps, a.Steps)
	}
	if r.Found {
		r.Vuln = fmt.Sprintf("%s in %s", rep.Report.VulnKind, rep.Report.VulnFunc)
	}
	return nil
}

// ingest streams one NDJSON batch into the named corpus.
func (c *client) ingest(j Job, name string, rec *Recorder, parent int64, acc *layers) *result {
	r := &result{Job: j, Start: time.Now()}
	batch := c.b.batches[j.App]
	id := rec.Begin("ingest", parent, j.Seq)
	code, data, err := c.do(http.MethodPost,
		fmt.Sprintf("%s/v1/corpora/%s/runs?program=%s", c.b.base, name, j.App), "application/x-ndjson", batch)
	r.Latency = time.Since(r.Start)
	rec.End(id)
	var res service.IngestResult
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err == nil && res.Runs != c.b.runsIn[j.App] {
		err = fmt.Errorf("ingested %d runs, sent %d", res.Runs, c.b.runsIn[j.App])
	}
	if err != nil {
		r.fail("ingest %d (%s into %s): %v", j.Seq, j.App, name, err)
		return r
	}
	if acc != nil {
		acc.addIngest(r.Latency, res.Runs, int64(len(batch)))
	}
	return r
}

// stopDaemon drains the daemon (sealing its ledger and corpora) and stops
// its HTTP server. Idempotent.
func (b *serviceBench) stopDaemon() error {
	if b.svc == nil {
		return nil
	}
	svc, rt := b.svc, b.rt
	b.svc, b.rt = nil, nil
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := svc.Drain(ctx)
	if rt != nil {
		if serr := rt.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	return err
}

// check compares every job with an in-process run of the same spec,
// computed outside the timed phase after the daemon has drained: the
// detection digest, each attempt's steps and the reported vulnerability
// must be equal. A job then carries the in-process run's witness, which
// the report shows only abridged, for the witness replay. Untraced, the
// reference is core.RunJob; traced, it is the layer calls inside spans.
func (b *serviceBench) check(ctx context.Context, results []*result, rec *Recorder, acc *layers) {
	if err := b.stopDaemon(); err != nil {
		for _, r := range results {
			r.fail("daemon drain: %v", err)
		}
		return
	}
	if rec == nil {
		b.refTime = map[string]time.Duration{}
	}
	byKey := map[string][]*result{}
	for _, r := range results {
		if !r.Job.Ingest && len(r.Fail) == 0 {
			byKey[r.Job.Key] = append(byKey[r.Job.Key], r)
		}
	}
	for _, key := range sortedKeys(byKey) {
		rs := byKey[key]
		ref := b.reference(ctx, rs[0].Job, rec, acc)
		for _, r := range rs {
			if len(ref.Fail) > 0 {
				r.Fail = append(r.Fail, ref.Fail...)
				continue
			}
			if err := sameOutcome(ref, r); err != nil {
				r.fail("job %d (%s): daemon vs in-process core.RunJob: %v", r.Job.Seq, key, err)
				continue
			}
			if r.Vuln != ref.Vuln {
				r.fail("job %d (%s): daemon reports %q, in-process %q", r.Job.Seq, key, r.Vuln, ref.Vuln)
				continue
			}
			r.Witness, r.Kind, r.Func = ref.Witness, ref.Kind, ref.Func
			if acc != nil {
				acc.addOverhead(r.Finished.Sub(r.Started).Seconds() - b.refTime[key].Seconds())
			}
		}
	}
}

// reference runs one job's spec in-process.
func (b *serviceBench) reference(ctx context.Context, j Job, rec *Recorder, acc *layers) *result {
	r := &result{Job: j}
	app, prog := b.apps[j.App], b.progs[j.App]
	cfg := b.config(j)
	load := func(parent int64) (*trace.Corpus, error) {
		if j.Named {
			id := rec.Begin("materialize", parent, -1)
			defer rec.End(id)
			sh, err := corpus.OpenSharded(filepath.Join(b.data, "corpora", namedCorpus(j.App)))
			if err != nil {
				return nil, err
			}
			return sh.Materialize()
		}
		return newCorpusSource(app, acc != nil).collect(ctx, j.Seed, j.Rate, rec, parent, acc)
	}
	t0 := time.Now()
	var rep *core.Report
	var err error
	if rec == nil {
		var c *trace.Corpus
		if c, err = load(0); err == nil {
			rep, err = core.RunJob(ctx, core.JobInputs{Prog: prog, Spec: app.Spec, Corpus: c}, cfg)
		}
		b.refTime[j.Key] = time.Since(t0)
	} else {
		id := rec.Begin("reference", 0, -1)
		rep, err = layeredJob(ctx, prog, app.Spec, load, cfg, -1, rec, id, acc)
		rec.End(id)
	}
	if err != nil {
		r.fail("reference for %s: %v", j.Key, err)
		return r
	}
	r.fillReport(rep)
	return r
}

func (b *serviceBench) programs() map[string]*bytecode.Program { return b.progs }

// close stops the daemon and the worker, waits for them, and removes the
// set-up's directory.
func (b *serviceBench) close() {
	if err := b.stopDaemon(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon drain:", err)
	}
	if b.worker != nil {
		b.worker.Close()
		<-b.workerDone
		b.worker = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}
