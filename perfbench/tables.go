package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/unifdist/unifdist/internal/experiment"
	"github.com/unifdist/unifdist/internal/obs"
)

// roundExperiments are the tables built on the CONGEST and LOCAL round
// simulators; the other twelve are the one-shot experiments.
var roundExperiments = map[string]bool{"E6": true, "E7": true, "E8": true}

// tinyExperiments is the smoke-test subset of the tables workload.
var tinyExperiments = []string{"E1", "E9"}

//go:embed digests.json
var digestsJSON []byte

// tableDigests maps an experiment seed to each table's digest (see
// tableDigest), recorded with --record-digests.
type tableDigests map[string]map[string]string

// digestSeeds returns the experiment seeds whose digests are recorded,
// in ascending order. The tables workload runs its own seed when that is
// recorded and digestSeeds[seed mod len] otherwise. Seed 1 is the
// default of cmd/unifbench; the others are held out.
func digestSeeds(d tableDigests) []uint64 {
	var out []uint64
	for s := range d {
		v, err := strconv.ParseUint(s, 10, 64)
		if err == nil {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tableDigest hashes a table's text rendering without its timing line.
func tableDigest(t *experiment.Table) (string, error) {
	var buf bytes.Buffer
	if err := t.Render(&buf); err != nil {
		return "", err
	}
	h := sha256.New()
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.Contains(line, "completed in") {
			io.WriteString(h, line)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tablesWorkload is a closed loop of one client running the experiment
// tables E1–E15 in order, in quick mode, with the default worker count.
// Passes repeat until the window has elapsed; one pass outlasts it.
type tablesWorkload struct {
	ids     []string
	exps    []experiment.Experiment
	want    map[string]string
	expSeed uint64
	// oneshotUntraced is the one-shot experiments' wall time untraced,
	// which the traced run is compared with.
	oneshotUntraced float64
}

func (w *tablesWorkload) setup(opts options) (time.Duration, error) {
	return repeatSetup(func() error { return w.build(opts) })
}

// build resolves the experiments and the expected digests for the seed.
func (w *tablesWorkload) build(opts options) error {
	var all tableDigests
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return fmt.Errorf("digests: %w", err)
	}
	seeds := digestSeeds(all)
	if len(seeds) == 0 {
		return fmt.Errorf("digests: no recorded seeds")
	}
	w.expSeed = opts.seed
	if all[strconv.FormatUint(opts.seed, 10)] == nil {
		w.expSeed = seeds[opts.seed%uint64(len(seeds))]
	}
	w.want = all[strconv.FormatUint(w.expSeed, 10)]
	w.ids = experimentIDs
	if opts.tiny {
		w.ids = tinyExperiments
	}
	w.exps = w.exps[:0]
	for _, id := range w.ids {
		e, ok := experiment.Lookup(id)
		if !ok {
			return fmt.Errorf("experiment %s not registered", id)
		}
		if w.want[id] == "" {
			return fmt.Errorf("no recorded digest for %s at seed %d", id, w.expSeed)
		}
		w.exps = append(w.exps, e)
	}
	return nil
}

// tableRun is one experiment's outcome.
type tableRun struct {
	id     string
	wall   time.Duration
	digest string
	err    error
}

// pass runs each experiment once, in order. With tr set it wraps each
// Experiment.Run in a span; with reg set it attaches a telemetry recorder
// to the one-shot experiments' RunContext. only, when non-nil, restricts
// the pass to those IDs.
func (w *tablesWorkload) pass(tr *tracer, reg *obs.Registry, only func(string) bool) []tableRun {
	var out []tableRun
	for i, e := range w.exps {
		if only != nil && !only(e.ID) {
			continue
		}
		ctx := experiment.NewRunContext(experiment.Quick, w.expSeed)
		if reg != nil && !roundExperiments[e.ID] {
			// The recorder feeds zeroround's trial counters; on the round
			// simulators it would also switch on per-round tracing, which
			// the E6–E8 timings must not include.
			ctx.Obs = &obs.Recorder{Registry: reg}
		}
		sp := tr.begin("experiment.Run."+e.ID, uint64(i+1), nil)
		t0 := time.Now()
		tbl, err := e.Run(ctx)
		wall := time.Since(t0)
		sp.end()
		r := tableRun{id: e.ID, wall: wall, err: err}
		if err == nil {
			r.digest, r.err = tableDigest(tbl)
		}
		out = append(out, r)
	}
	return out
}

func (w *tablesWorkload) measure(opts options, rep *report, tr *tracer) {
	oneshot := func(id string) bool { return !roundExperiments[id] }
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	var runs []tableRun
	var passes, rounds, singles []float64
	win := startWindow()
	deadline := win.start.Add(opts.window)
	for p := 0; p == 0 || (tr == nil && !opts.trace && time.Now().Before(deadline)); p++ {
		var only func(string) bool
		if tr == nil && opts.trace {
			// The traced invocation's untraced reference covers the
			// one-shot tables only, which keeps it inside the run budget.
			only = oneshot
		}
		t0 := time.Now()
		pr := w.pass(tr, reg, only)
		passes = append(passes, float64(time.Since(t0))/1e6)
		r, s := 0.0, 0.0
		for _, x := range pr {
			if roundExperiments[x.id] {
				r += x.wall.Seconds()
			} else {
				s += x.wall.Seconds()
			}
		}
		rounds = append(rounds, r)
		singles = append(singles, s)
		runs = append(runs, pr...)
	}
	st := win.stop(time.Now())

	rep.attempted += len(runs)
	failed := 0
	for _, r := range runs {
		if r.err != nil {
			failed++
		}
	}
	rep.failed += failed
	n := len(runs)
	// A tables session is one pass: every table regenerated.
	switch {
	case tr == nil && opts.trace:
		w.oneshotUntraced = quantile(singles, 0.5)
		setRuntime(rep, st, 0)
	case tr == nil:
		rep.set("session_p50_ms", quantile(passes, 0.5), "ms", len(passes))
		rep.set("sessions_per_s", float64(len(passes))/st.wall.Seconds(), "1/s", len(passes))
		rep.set("cpu_ms_per_session", float64(st.cpu)/1e6/float64(len(passes)), "ms", len(passes))
		rep.set("failed_frac", float64(failed)/float64(n), "1", n)
		rep.set("tables_rounds_s", quantile(rounds, 0.5), "s", len(rounds))
		rep.set("tables_oneshot_s", quantile(singles, 0.5), "s", len(singles))
		setRuntime(rep, st, 0)
	default:
		rep.set("tables_rounds_s", quantile(rounds, 0.5), "s", len(rounds))
		rep.set("tables_oneshot_s", quantile(singles, 0.5), "s", len(singles))
		rep.set("failed_frac", float64(failed)/float64(n), "1", n)
		for _, r := range runs {
			rep.set("experiment."+r.id+"_s", r.wall.Seconds(), "s", 1)
		}
		rep.set("zeroround.trials", float64(reg.Counter("zeroround.trials").Value()), "count", 1)
		h := reg.Histogram("zeroround.trial_ns", obs.LatencyBuckets()).Snapshot()
		rep.set("zeroround.trial_ns_p50", histP50(h), "ns", int(h.Count))
		rep.set("trace.overhead_frac", quantile(singles, 0.5)/w.oneshotUntraced-1, "1", len(singles))
	}
	for _, r := range runs {
		want := w.want[r.id]
		if opts.inject && r.id == w.ids[0] {
			want = strings.Map(func(r rune) rune { return r ^ 1 }, want)
		}
		switch {
		case r.err != nil:
			rep.mismatch("table %s: %v", r.id, r.err)
		case r.digest != want:
			rep.mismatch("table %s at seed %d: digest %.16s, recorded %.16s", r.id, w.expSeed, r.digest, want)
		}
	}
}

// histP50 returns the upper bound of the bucket holding the median of a
// telemetry histogram.
func histP50(h obs.HistogramSnapshot) float64 {
	var acc int64
	for _, b := range h.Buckets {
		acc += b.Count
		if 2*acc >= h.Count {
			if b.Overflow {
				return float64(h.Max)
			}
			return float64(b.UpperBound)
		}
	}
	return 0
}

// replay has no vote stages to replay: the tables run in-process.
func (w *tablesWorkload) replay(options, *report) error { return nil }

// recordDigests runs every table for each seed in "SEEDS:FILE" and writes
// the digests as JSON to FILE.
func recordDigests(arg string, out io.Writer) error {
	seedList, path, ok := strings.Cut(arg, ":")
	if !ok {
		return fmt.Errorf("record-digests wants SEEDS:FILE, got %q", arg)
	}
	all := tableDigests{}
	for _, s := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return err
		}
		w := &tablesWorkload{ids: experimentIDs, expSeed: seed}
		for _, id := range experimentIDs {
			e, _ := experiment.Lookup(id)
			w.exps = append(w.exps, e)
		}
		all[strconv.FormatUint(seed, 10)] = map[string]string{}
		for _, r := range w.pass(nil, nil, nil) {
			if r.err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, r.id, r.err)
			}
			all[strconv.FormatUint(seed, 10)][r.id] = r.digest
			fmt.Fprintf(out, "seed %d %s %.16s (%v)\n", seed, r.id, r.digest, r.wall.Round(time.Millisecond))
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
