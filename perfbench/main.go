// Command perfbench is the repository's benchmark. One invocation runs
// one workload for one seed:
//
//	perfbench --workload tables|service|cluster --seed N --seconds S --trace 0|1
//
// It drives only the exported APIs of experiment, zeroround, cluster and
// cluster/service, checks every output against deterministic oracles
// after the timed window, prints every metric by name with its unit and
// sample count, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics of an untraced
// run. With --trace 1 the invocation runs the workload untraced and then
// traced, replays each vote stage on the workload's own inputs, and the
// JSON carries the per-layer metrics. An oracle mismatch exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// tiny selects the smoke-test sizes of each workload.
	tiny bool
	// outDir receives the span JSONL of traced runs.
	outDir string
	// inject corrupts one expected oracle value, so a run must fail: the
	// smoke test uses it to prove the oracles bite.
	inject bool
	// srcRoot is the repository checkout whose packages are counted for
	// the loc.* metrics.
	srcRoot string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "cluster", "workload: tables, service or cluster")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 18, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	tiny := fs.Bool("tiny", false, "smoke-test sizes")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span JSONL output")
	srcRoot := fs.String("src", ".", "repository checkout counted by the loc.* metrics")
	inject := fs.Bool("inject-mismatch", false, "corrupt one expected oracle value; the run must then fail")
	record := fs.String("record-digests", "", "write table digests for these comma-separated seeds to this file and exit: SEEDS:FILE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *record != "" {
		if err := recordDigests(*record, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traced != 0,
		tiny:     *tiny,
		outDir:   *outDir,
		srcRoot:  *srcRoot,
		inject:   *inject,
	}
	rep, err := run(opts)
	if rep != nil {
		rep.print(stdout, opts.trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(rep.mismatches) > 0 {
		fmt.Fprintln(stderr, "perfbench: oracle mismatch:", rep.mismatches[0])
		return 1
	}
	return 0
}

// run executes one workload, untraced or (opts.trace) untraced then
// traced with the stage-replay ledger.
func run(opts options) (*report, error) {
	var w workload
	switch opts.workload {
	case "tables":
		w = &tablesWorkload{}
	case "service":
		w = &serviceWorkload{}
	case "cluster":
		w = &clusterWorkload{}
	default:
		return nil, fmt.Errorf("unknown workload %q (want tables, service or cluster)", opts.workload)
	}
	if c, ok := w.(io.Closer); ok {
		defer c.Close()
	}
	rep := newReport(opts.workload)
	setup, err := w.setup(opts)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.set("setup_s", setup.Seconds(), "s", setupReps)
	w.measure(opts, rep, nil)
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	if !opts.trace {
		return rep, nil
	}
	tr := newTracer()
	w.measure(opts, rep, tr)
	if err := w.replay(opts, rep); err != nil {
		return rep, err
	}
	if err := tr.writeJSONL(filepath.Join(opts.outDir, fmt.Sprintf("spans-%s-%d.jsonl", opts.workload, opts.seed))); err != nil {
		return rep, err
	}
	rep.notes = append(rep.notes, tr.selfTimeTable()...)
	if err := addLOC(rep, opts.srcRoot); err != nil {
		return rep, err
	}
	return rep, nil
}

// workload is one benchmark workload. setup builds its inputs (repeated
// setupReps times; the median is setup_s). measure runs one timed window
// — untraced when tr is nil, else recording spans into tr — and checks
// its outputs against the oracles after the window. replay runs the
// stage-replay ledger on the same inputs.
type workload interface {
	setup(opts options) (time.Duration, error)
	measure(opts options, rep *report, tr *tracer)
	replay(opts options, rep *report) error
}

// setupReps is how many times each workload builds its inputs; setup_s is
// the median build time.
const setupReps = 51
