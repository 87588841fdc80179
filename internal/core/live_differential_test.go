package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/workload"
)

// TestLiveIntrospectionDifferential pins the observability contract on
// every evaluation workload: running the pipeline with a live
// introspection server attached — hub sink, aggressive progress
// interval, and concurrent scrapers hammering /metrics and /progress
// the whole time — must produce a byte-identical detection digest to a
// bare run. The server only ever reads atomics and receives events on a
// never-blocking fan-out, so scraping cannot perturb the search.
func TestLiveIntrospectionDifferential(t *testing.T) {
	for _, name := range []string{"polymorph", "ctree", "thttpd", "grep", "msgtool"} {
		t.Run(name, func(t *testing.T) {
			app, err := apps.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			bare, err := runCorpus(context.Background(), app.Program(), corpus, Config{Spec: app.Spec})
			if err != nil {
				t.Fatal(err)
			}

			hub := live.NewHub()
			o := obs.New(hub)
			o.Interval = time.Millisecond // force frequent progress frames
			srv := live.NewServer(o, hub)
			srv.Tick = 5 * time.Millisecond
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// Scrapers run for the whole pipeline: metrics polling plus a
			// held-open SSE stream consuming frames as they arrive.
			scrapeCtx, stopScrape := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for scrapeCtx.Err() == nil {
					resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}()
			go func() {
				defer wg.Done()
				req, _ := http.NewRequestWithContext(scrapeCtx, "GET",
					fmt.Sprintf("http://%s/progress?tick=5ms", addr), nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body) // until scrapeCtx cancels
			}()

			ctx := obs.NewContext(context.Background(), o)
			observed, err := runCorpus(ctx, app.Program(), corpus, Config{Spec: app.Spec})
			stopScrape()
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}

			if bd, od := DetectionDigest(bare), DetectionDigest(observed); bd != od {
				t.Errorf("detection digests diverged under live introspection:\n--- bare ---\n%s--- observed ---\n%s", bd, od)
			}
			if hub.Events() == 0 {
				t.Error("hub saw no events — the observed run was not actually instrumented")
			}
		})
	}
}
