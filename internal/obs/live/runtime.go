package live

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Options are the observability flag values a binary collects (see
// BindFlags); Init turns them into a wired Runtime.
type Options struct {
	Binary string // binary name for diagnostics ("statsym", ...)

	Listen string // -listen: introspection server address ("" disables); pprof rides the same mux

	Trace    string        // -trace: JSONL event trace path ("" disables)
	Interval time.Duration // -trace-interval: progress-snapshot cadence
	Metrics  bool          // -metrics: keep a registry even without trace/listen

	Flight      string // -flight: flight-recorder dump path ("" disables)
	FlightDepth int    // -flight-depth: per-category ring depth (0: default)

	// Mounts are extra handlers grafted onto the live server's mux under
	// their ServeMux patterns — how statsymd serves its /v1 job API and
	// the introspection endpoints from one listener. Ignored when Listen
	// is empty.
	Mounts map[string]http.Handler

	// ForceHub keeps an event hub (and therefore a non-nil Obs) even
	// without a Listen address, for embedders that fan events out to
	// their own subscribers (the daemon's per-job SSE streams).
	ForceHub bool
}

// BindFlags registers the observability flags every binary shares on fs
// and returns the Options they fill in once fs is parsed, ready for Init:
// -trace, -trace-interval, -flight and -flight-depth, plus -listen and
// -metrics unless daemon is set. A daemon serves introspection on its own
// API listener and always keeps metrics, so it sets Listen and Metrics on
// the returned Options itself.
func BindFlags(fs *flag.FlagSet, binary string, daemon bool) *Options {
	o := &Options{Binary: binary}
	if !daemon {
		fs.StringVar(&o.Listen, "listen", "", "serve live introspection (/metrics, /progress, /spans, pprof) on this address (e.g. localhost:6060)")
		fs.BoolVar(&o.Metrics, "metrics", false, "print the metrics registry at exit")
	}
	fs.StringVar(&o.Trace, "trace", "", "stream a JSONL event trace (spans, progress, warnings) to this file")
	fs.DurationVar(&o.Interval, "trace-interval", time.Second, "progress-snapshot period for -trace")
	fs.StringVar(&o.Flight, "flight", "", "dump the flight-recorder ring (JSONL) to this file on fault, panic, or interrupt")
	fs.IntVar(&o.FlightDepth, "flight-depth", flight.DefaultDepth, "flight-recorder events retained per category")
	return o
}

// Runtime is a binary's wired observability: the Obs handle (nil when
// everything is disabled), the live server, and the flight recorder.
// All methods are nil-safe.
type Runtime struct {
	obsv    *obs.Obs
	hub     *Hub
	rec     *flight.Recorder
	srv     *Server
	opts    Options
	closers []func() error
	faulted atomic.Bool
}

// Init wires the runtime from flag values. Errors come only from the
// trace file or the listener.
func Init(o Options) (*Runtime, error) {
	rt := &Runtime{opts: o}

	var sinks obs.MultiSink
	var closeTrace func() error
	if o.Trace != "" {
		f, err := os.Create(o.Trace)
		if err != nil {
			return nil, err
		}
		js := obs.NewJSONLSink(f)
		sinks = append(sinks, js)
		closeTrace = js.Close
	}
	if o.Listen != "" || o.ForceHub {
		rt.hub = NewHub()
		sinks = append(sinks, rt.hub)
	}
	if o.Flight != "" {
		rt.rec = flight.New(o.FlightDepth)
		sinks = append(sinks, rt.rec)
	}

	if len(sinks) > 0 || o.Metrics {
		var sink obs.Sink
		switch len(sinks) {
		case 0:
		case 1:
			sink = sinks[0]
		default:
			sink = sinks
		}
		rt.obsv = obs.New(sink)
		rt.obsv.Interval = o.Interval
	}
	if closeTrace != nil {
		rt.closers = append(rt.closers, closeTrace)
	}

	if o.Listen != "" {
		rt.srv = NewServer(rt.obsv, rt.hub)
		for pattern, h := range o.Mounts {
			rt.srv.Mount(pattern, h)
		}
		addr, err := rt.srv.Start(o.Listen)
		if err != nil {
			for _, c := range rt.closers {
				_ = c()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: live introspection on http://%s/\n", o.Binary, addr)
	}
	return rt, nil
}

// Obs returns the run's observability handle (nil when disabled).
func (rt *Runtime) Obs() *obs.Obs {
	if rt == nil {
		return nil
	}
	return rt.obsv
}

// Context returns ctx carrying the runtime's Obs (ctx unchanged when
// observability is disabled).
func (rt *Runtime) Context(ctx context.Context) context.Context {
	if rt == nil {
		return ctx
	}
	return obs.NewContext(ctx, rt.obsv)
}

// Hub returns the runtime's event hub (nil without a listener or
// ForceHub). Embedders use it to fan run events out to their own
// subscribers alongside the /progress stream.
func (rt *Runtime) Hub() *Hub {
	if rt == nil {
		return nil
	}
	return rt.hub
}

// Addr returns the live server's bound address ("" when not listening).
func (rt *Runtime) Addr() string {
	if rt == nil || rt.srv == nil {
		return ""
	}
	return rt.srv.Addr()
}

// Flight returns the flight recorder (nil when disabled). Exposed for
// tests; binaries only need NoteFault/Shutdown.
func (rt *Runtime) Flight() *flight.Recorder {
	if rt == nil {
		return nil
	}
	return rt.rec
}

// NoteFault marks the run as having detected a fault (a verified
// vulnerability, a failed invariant), so Shutdown dumps the flight
// recorder even on a clean exit.
func (rt *Runtime) NoteFault() {
	if rt == nil {
		return
	}
	rt.faulted.Store(true)
}

// DumpOnPanic is deferred at the top of an instrumented run: on panic it
// dumps the flight recorder (reason "panic") and re-panics, so the
// post-mortem artifact exists alongside the crash trace.
func (rt *Runtime) DumpOnPanic() {
	if rt == nil || rt.rec == nil {
		return
	}
	if p := recover(); p != nil {
		if err := rt.rec.DumpFile(rt.opts.Flight, "panic"); err == nil {
			fmt.Fprintf(os.Stderr, "%s: flight recorder dumped to %s (panic)\n", rt.opts.Binary, rt.opts.Flight)
		}
		panic(p)
	}
}

// Shutdown finalizes the runtime: dumps the flight recorder when the run
// faulted or was cancelled, flushes the trace, and stops the live server.
// The first error wins; later steps still run.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	if rt == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if rt.rec != nil {
		reason := ""
		switch {
		case rt.faulted.Load():
			reason = "fault"
		case ctx != nil && ctx.Err() != nil:
			reason = "cancelled"
		}
		if reason != "" {
			if err := rt.rec.DumpFile(rt.opts.Flight, reason); err != nil {
				keep(err)
			} else {
				fmt.Fprintf(os.Stderr, "%s: flight recorder dumped to %s (%s)\n", rt.opts.Binary, rt.opts.Flight, reason)
			}
		}
	}
	for _, c := range rt.closers {
		keep(c())
	}
	if rt.srv != nil {
		keep(rt.srv.Close())
	}
	return first
}
