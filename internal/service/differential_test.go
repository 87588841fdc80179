package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/workload"
)

// differentialApps is the five-app surface the API-vs-CLI digest
// invariant is pinned on (the same list as the core dispatch tests).
var differentialApps = []string{"polymorph", "ctree", "thttpd", "grep", "msgtool"}

// referenceDigest runs the pipeline directly, exactly as the statsym CLI
// does for `-app X -rate 0.3 -seed 1`: same workload, same config
// defaults — the reference the daemon must reproduce byte-for-byte.
func referenceDigest(t *testing.T, appName string) string {
	t.Helper()
	app, err := apps.Get(appName)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpusCtx(context.Background(), app, workload.Options{
		SampleRate: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunJob(context.Background(), core.JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return core.DetectionDigest(rep)
}

// startServiceWorker serves real dispatch attempt units on a unix socket,
// the in-process stand-in for a `symexec -serve-worker` process.
func startServiceWorker(t *testing.T) string {
	t.Helper()
	addr := t.TempDir() + "/w.sock"
	l, err := dispatch.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go dispatch.Serve(l, core.NewDispatchRunner(core.WorkerConfig{}))
	t.Cleanup(func() { l.Close() })
	return addr
}

// watchSSE subscribes to a job's event stream and reads frames until the
// server closes it (terminal state), counting data frames seen.
func watchSSE(t *testing.T, url string, frames *int, wg *sync.WaitGroup) {
	defer wg.Done()
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("sse: %v", err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("sse content-type = %q", ct)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	n := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data:") {
			n++
		}
	}
	*frames = n
}

// TestAPIDifferential pins the tentpole contract: a job submitted over
// HTTP produces a DetectionDigest byte-identical to the direct pipeline
// call (what the CLI runs) on every evaluation app — including when the
// daemon schedules candidate verification onto dispatch workers — while
// concurrent SSE subscribers stream each job's progress.
func TestAPIDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is minutes of work; run without -short")
	}
	workers := []string{startServiceWorker(t), startServiceWorker(t)}
	svc, ts := startService(t, Config{
		Runners:     2,
		QueueSlots:  16,
		WorkerAddrs: workers,
	})
	defer func() {
		if err := svc.Drain(drainCtx(t)); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	for _, appName := range differentialApps {
		appName := appName
		t.Run(appName, func(t *testing.T) {
			want := referenceDigest(t, appName)

			for _, mode := range []struct {
				name     string
				dispatch bool
			}{
				{"api", false},
				{"api-dispatch", true},
			} {
				spec := JobSpec{
					Tenant:   "diff",
					App:      appName,
					Corpus:   CorpusSpec{Rate: 0.3, Seed: 1},
					Dispatch: mode.dispatch,
				}
				resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("%s: submit: HTTP %d: %s", mode.name, resp.StatusCode, body)
				}
				var st Status
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}

				// Concurrent SSE subscribers ride the job while it runs.
				var wg sync.WaitGroup
				frames := make([]int, 3)
				for i := range frames {
					wg.Add(1)
					go watchSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events?tick=50ms", &frames[i], &wg)
				}

				final := waitTerminal(t, ts.URL, st.ID, 5*time.Minute)
				wg.Wait()
				if final.State != StateDone {
					t.Fatalf("%s: job ended %s (%s), want done", mode.name, final.State, final.Error)
				}
				if final.Digest != want {
					t.Errorf("%s: digest diverged from direct pipeline:\n--- direct ---\n%s--- %s ---\n%s",
						mode.name, want, mode.name, final.Digest)
				}
				for i, n := range frames {
					if n == 0 {
						t.Errorf("%s: SSE subscriber %d saw no data frames", mode.name, i)
					}
				}

				// The report endpoint repeats the same digest.
				rresp, rbody := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/report")
				if rresp.StatusCode != http.StatusOK {
					t.Fatalf("%s: report: HTTP %d: %s", mode.name, rresp.StatusCode, rbody)
				}
				var view struct {
					DetectionDigest string `json:"detection_digest"`
				}
				if err := json.Unmarshal(rbody, &view); err != nil {
					t.Fatal(err)
				}
				if view.DetectionDigest != want {
					t.Errorf("%s: report digest diverged from direct pipeline", mode.name)
				}
			}
		})
	}
}
