// Command statsymd is the resident analysis daemon: it accepts StatSym
// analysis jobs over HTTP (app + corpus reference + budgets as a JSON job
// spec), runs them through the exact pipeline the statsym CLI uses — same
// report, same detection digest — on a bounded queue with per-tenant fair
// scheduling, and streams per-job progress over SSE. Corpora can be
// streamed in ahead of time (POST /v1/corpora/{name}/runs) into sharded
// crash-safe segment stores and referenced by name from job specs.
//
// Jobs survive the daemon: every state transition lands in an append-only
// CRC-checked ledger, so a crashed or drained daemon requeues interrupted
// jobs on restart. SIGTERM drains gracefully — admission stops, in-flight
// jobs get -drain-timeout to finish before being interrupted, and the
// ledger is compacted and sealed.
//
// The introspection endpoints (/metrics, /progress, /spans, pprof) ride
// the same listener as the /v1 API.
//
//	statsymd -listen 127.0.0.1:7077 -data /var/lib/statsymd
//	statsymd loadtest -addr http://127.0.0.1:7077 -jobs 25
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/obs/live"
	"repro/internal/service"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadtest" {
		if err := loadtest(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "statsymd loadtest:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "statsymd:", err)
		os.Exit(1)
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("statsymd", flag.ExitOnError)
	lopts := live.BindFlags(fs, "statsymd", true)
	var (
		listen    = fs.String("listen", "127.0.0.1:7077", "HTTP address for the /v1 API and introspection endpoints")
		dataDir   = fs.String("data", "statsymd-data", "data directory (job ledger + named corpora)")
		slots     = fs.Int("queue-slots", 32, "bounded queue capacity; a full queue answers 429 + Retry-After")
		runners   = fs.Int("runners", 2, "concurrent job runners")
		drainTmo  = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain lets in-flight jobs finish before interrupting them")
		workerStr = fs.String("dispatch", "", "comma-separated dispatch worker addresses (unix:/path or tcp:host:port); jobs submitted with dispatch=true verify candidates on this pool")
		unitDl    = fs.Duration("unit-deadline", 0, "per-unit dispatch round-trip deadline (0: default)")
		dispLog   = fs.String("dispatch-log", "", "append a JSONL audit trail of dispatch scheduling decisions to this file")
		cacheDir  = fs.String("cache-dir", "", "persistent solver-cache directory shared by all jobs (wall-clock only)")
		shards    = fs.Int("shards", 0, "shard fan-out for newly created named corpora (0: default)")
	)
	fs.Parse(args)
	if *listen == "" {
		return fmt.Errorf("-listen must not be empty (the daemon is its API)")
	}

	svc, err := service.New(service.Config{
		DataDir:      *dataDir,
		QueueSlots:   *slots,
		Runners:      *runners,
		DrainTimeout: *drainTmo,
		WorkerAddrs:  dispatch.ParseAddrs(*workerStr),
		UnitDeadline: *unitDl,
		DispatchLog:  *dispLog,
		CacheDir:     *cacheDir,
		Shards:       *shards,
	})
	if err != nil {
		return err
	}

	// The API listener doubles as the introspection server, and the
	// daemon always keeps metrics.
	lopts.Listen, lopts.Metrics = *listen, true
	lopts.ForceHub = true
	lopts.Mounts = map[string]http.Handler{"/v1/": svc.Handler()}
	rt, err := live.Init(*lopts)
	if err != nil {
		return err
	}
	defer rt.DumpOnPanic()

	if err := svc.Start(rt.Obs()); err != nil {
		return err
	}
	if n := len(svc.Recovered()); n > 0 {
		fmt.Printf("statsymd: recovered %d interrupted job(s) from the ledger\n", n)
	}
	fmt.Printf("statsymd: serving jobs on http://%s/v1/ (data in %s, %d runners, %d queue slots)\n",
		rt.Addr(), *dataDir, *runners, *slots)

	// SIGINT/SIGTERM start the graceful drain; a second signal kills the
	// process the hard way (the ledger makes that recoverable too).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	fmt.Printf("statsymd: draining (up to %v for in-flight jobs)\n", *drainTmo)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTmo)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "statsymd: drain:", err)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "statsymd: obs:", err)
	}
	fmt.Println("statsymd: drained")
	return nil
}

func loadtest(args []string) error {
	fs := flag.NewFlagSet("statsymd loadtest", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:7077", "daemon base URL")
		jobs    = fs.Int("jobs", 25, "total jobs to submit")
		tenants = fs.Int("tenants", 5, "synthetic tenants to spread jobs over")
		conc    = fs.Int("concurrency", 8, "concurrent submitting clients")
		app     = fs.String("app", "polymorph", "application every job analyzes")
		streams = fs.Int("ingest-streams", 2, "concurrent corpus-ingestion streams alongside the job load (0: none)")
		inRuns  = fs.Int("ingest-runs", 50, "runs per ingestion stream")
		timeout = fs.Duration("timeout", 5*time.Minute, "overall load-test budget")
		seed    = fs.Int64("seed", 1, "synthetic corpus seed")
	)
	fs.Parse(args)

	rep, err := service.RunLoadTest(service.LoadOptions{
		BaseURL:       *addr,
		Jobs:          *jobs,
		Tenants:       *tenants,
		Concurrency:   *conc,
		App:           *app,
		IngestStreams: *streams,
		IngestRuns:    *inRuns,
		Timeout:       *timeout,
		Seed:          *seed,
	})
	if rep != nil {
		fmt.Print(service.FormatLoadReport(rep))
	}
	return err
}
