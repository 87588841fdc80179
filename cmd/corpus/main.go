// Command corpus manages segmented on-disk trace stores (internal/corpus)
// — the durable home of monitor logs once corpora outgrow one JSON blob.
//
//	corpus ingest  -dir DIR (-app NAME [-rate R -seed S -runs N] | -from FILE)
//	corpus stats   -dir DIR
//	corpus compact -dir DIR
//	corpus verify  -dir DIR
//
// ingest fills a store either by collecting fresh runs from an evaluation
// app's workload generator or by converting a legacy JSON corpus file;
// stats streams the statistical front-end (predicates, Eq. 1–2) straight
// off the segments and reports scan throughput; compact rewrites
// fragmented stores into full-size segments; verify checksums and decodes
// every block, exiting non-zero on any corruption or torn segment.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "corpus: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  corpus ingest  -dir DIR (-app NAME [-rate R -seed S -runs N] | -from FILE)
  corpus stats   -dir DIR [-top N]
  corpus compact -dir DIR
  corpus verify  -dir DIR`)
}

func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (created if missing)")
	appName := fs.String("app", "", "collect runs from this evaluation app's workload generator")
	from := fs.String("from", "", "ingest a legacy JSON corpus file (from cmd/monitor) instead of collecting")
	rate := fs.Float64("rate", 0.3, "per-event log sampling rate (with -app)")
	seed := fs.Int64("seed", 1, "workload and sampling seed (with -app)")
	runs := fs.Int("runs", workload.DefaultRuns, "correct and faulty runs to collect, each (with -app)")
	blockKB := fs.Int("block-kb", 0, "raw block size in KiB (0: default)")
	segMB := fs.Int("segment-mb", 0, "compressed segment roll size in MiB (0: default)")
	fs.Parse(args)
	if *dir == "" || (*appName == "") == (*from == "") {
		return fmt.Errorf("ingest needs -dir and exactly one of -app or -from")
	}
	wopts := corpus.Options{BlockBytes: *blockKB << 10, SegmentBytes: int64(*segMB) << 20}
	start := time.Now()

	if *from != "" {
		c, err := trace.ReadFile(*from)
		if err != nil {
			return err
		}
		s, err := corpus.Create(*dir, c.Program)
		if err != nil {
			return err
		}
		w := s.NewWriter(wopts)
		for i := range c.Runs {
			if err := w.Append(&c.Runs[i]); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		report(s, fmt.Sprintf("ingested %s", *from), w.Sealed().Bytes, start)
		return nil
	}

	app, err := apps.Get(*appName)
	if err != nil {
		return err
	}
	s, err := corpus.Create(*dir, app.Name)
	if err != nil {
		return err
	}
	before := s.TotalBytes()
	err = workload.BuildCorpusStoreCtx(context.Background(), app, workload.Options{
		SampleRate: *rate, Seed: *seed, Correct: *runs, Faulty: *runs,
	}, s, wopts)
	if err != nil {
		return err
	}
	report(s, fmt.Sprintf("collected from %s", app.Name), s.TotalBytes()-before, start)
	return nil
}

func report(s *corpus.Store, what string, bytes int64, start time.Time) {
	elapsed := time.Since(start)
	mbs := float64(bytes) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("%s -> %s: %d runs, %d segments, %d bytes in %v (%.1f MB/s)\n",
		what, s.Dir(), s.TotalRuns(), len(s.Segments()), s.TotalBytes(),
		elapsed.Round(time.Millisecond), mbs)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	top := fs.Int("top", 10, "predicates to print")
	maxDistinct := fs.Int("max-distinct", 0, "per-variable sketch cap before exact fallback (0: default)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("stats needs -dir")
	}
	s, err := corpus.Open(*dir)
	if err != nil {
		return err
	}
	nR, nL, nV, err := s.Counts()
	if err != nil {
		return err
	}
	fmt.Printf("store %s (%s): %d runs, %d locations, %d variables, %d bytes in %d segments\n",
		*dir, s.Program(), nR, nL, nV, s.TotalBytes(), len(s.Segments()))

	start := time.Now()
	it := s.Iter()
	a, err := stats.AnalyzeStream(context.Background(), it, stats.StreamOpts{MaxDistinct: *maxDistinct})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	scanned := it.ScannedBytes()
	it.Close()
	mbs := float64(scanned) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("streaming analysis: %d predicates in %v (scanned %d compressed bytes, %.1f MB/s, peak block %d B)\n",
		len(a.Predicates), elapsed.Round(time.Millisecond), scanned, mbs, it.MaxBlockBytes())
	for i, p := range a.Top(*top) {
		fmt.Printf("  P%-2d %-45s @ %s (score %.3f, E=%d, %d/%d samples)\n",
			i+1, p.String(), p.Loc, p.Score, p.Err, p.CountC, p.CountF)
	}
	return nil
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	blockKB := fs.Int("block-kb", 0, "raw block size in KiB for rewritten segments (0: default)")
	segMB := fs.Int("segment-mb", 0, "compressed segment roll size in MiB (0: default)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("compact needs -dir")
	}
	s, err := corpus.Open(*dir)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := s.Compact(corpus.Options{BlockBytes: *blockKB << 10, SegmentBytes: int64(*segMB) << 20})
	if err != nil {
		return err
	}
	fmt.Printf("compacted %s: %d -> %d segments, %d -> %d bytes, %d runs in %v\n",
		*dir, res.SegmentsBefore, res.SegmentsAfter, res.BytesBefore, res.BytesAfter,
		res.Runs, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	scan := fs.Bool("scan", true, "also time a full streaming scan of every run")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("verify needs -dir")
	}
	s, err := corpus.Open(*dir)
	if err != nil {
		return err
	}
	rep, err := s.Verify()
	if err != nil {
		return err
	}
	fmt.Printf("verify %s: %s\n", *dir, rep.Summary())
	if !rep.OK() {
		for _, p := range rep.AllProblems() {
			fmt.Fprintln(os.Stderr, "corpus:", p)
		}
		return fmt.Errorf("store failed verification")
	}
	if *scan {
		start := time.Now()
		it := s.Iter()
		n := 0
		for {
			_, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			n++
		}
		elapsed := time.Since(start)
		mbs := float64(it.ScannedBytes()) / (1 << 20) / elapsed.Seconds()
		it.Close()
		fmt.Printf("scan: %d runs, %d compressed bytes in %v (%.1f MB/s)\n",
			n, it.ScannedBytes(), elapsed.Round(time.Millisecond), mbs)
	}
	return nil
}
