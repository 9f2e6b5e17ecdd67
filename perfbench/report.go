package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// spec names one reported metric and its unit.
type spec struct {
	name, unit string
}

// endToEnd are the metrics every workload reports from its untraced run,
// and the only ones in the JSON line of a --trace 0 run. They must match
// the end_to_end list of BENCHMARK.json. A "session" is one unit of user
// work: a service session (timed from its due time), a cluster session,
// or one pass over the experiment tables. mem_p50_mb is the median memory
// the process holds from the OS over the window; it stands in for
// peak_rss_mb, whose value depends on which garbage-collection cycle
// happened to peak and varied by more than the bound between runs.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"cpu_ms_per_session", "ms"},
	{"mem_p50_mb", "MB"},
}

// workloadOnly are end-to-end figures that are defined on some workloads
// only, or too noisy to bound. They are printed by every run where they
// apply and reported among the per-layer metrics (0 where they do not
// apply). session_p50_ms is steady on the closed loops, where
// sessions_per_s carries the same information, but on the service it
// follows the host's CPU steal: its spread over ten runs reached 0.19–0.35
// of the median.
var workloadOnly = []spec{
	{"session_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"votes_per_s", "votes/s"},
	{"cpu_ns_per_vote", "ns"},
	{"session_p99_ms", "ms"},
	{"failed_frac", "1"},
	{"tables_rounds_s", "s"},
	{"tables_oneshot_s", "s"},
}

// serviceClasses are the service workload's session classes, in the order
// their per-class metrics are listed.
var serviceClasses = []string{"thr", "andz", "sketch", "faulty", "early"}

// experimentIDs are the experiment tables, in run order.
var experimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}

// perLayer is the JSON metric list of a --trace 1 run; it must match the
// per_layer list of BENCHMARK.json. A metric a workload does not exercise
// reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	out := append([]spec(nil), workloadOnly...)
	out = append(out,
		spec{"dist.sample_ns_per_vote", "ns"},
		spec{"dist.sample_allocs_per_vote", "allocs"},
		spec{"tester.test_ns_per_vote", "ns"},
		spec{"tester.test_allocs_per_vote", "allocs"},
		spec{"wire.encode_ns_per_vote", "ns"},
		spec{"wire.encode_allocs_per_vote", "allocs"},
		spec{"wire.decode_ns_per_vote", "ns"},
		spec{"wire.decode_allocs_per_vote", "allocs"},
		spec{"wire.bytes_per_vote", "B"},
		spec{"wire.compress_saved_frac", "1"},
		spec{"cluster.fold_ns_per_vote", "ns"},
		spec{"cluster.fold_allocs_per_vote", "allocs"},
		spec{"cluster.partial_fold_ns_per_vote", "ns"},
		spec{"cluster.decide_us", "us"},
		spec{"ledger.stage_sum_ns_per_vote", "ns"},
		spec{"cluster.residual_ns_per_vote", "ns"},
		spec{"cluster.node_run_p50_ms", "ms"},
		spec{"cluster.referee_serve_ms", "ms"},
		spec{"cluster.agg_serve_ms", "ms"},
		spec{"cluster.star_votes_per_s", "votes/s"},
		spec{"cluster.tree_votes_per_s", "votes/s"},
		spec{"cluster.frames_per_vote", "1"},
		spec{"cluster.dup_votes", "count"},
		spec{"cluster.missing_votes", "count"},
		spec{"cluster.bad_frames", "count"},
		spec{"service.admit_p50_ms", "ms"},
		spec{"service.admit_p99_ms", "ms"},
		spec{"service.nodes_p50_ms", "ms"},
		spec{"service.report_p50_ms", "ms"},
	)
	for _, c := range serviceClasses {
		out = append(out, spec{"service.class_p50_ms." + c, "ms"})
	}
	out = append(out,
		spec{"service.rejected_frac", "1"},
		spec{"service.in_flight_mean", "sessions"},
		spec{"service.in_flight_max", "sessions"},
		spec{"runtime.allocs_per_vote", "allocs"},
		spec{"runtime.alloc_bytes_per_vote", "B"},
		spec{"runtime.gc_cpu_frac", "1"},
		spec{"runtime.sched_latency_p99_us", "us"},
		spec{"runtime.goroutines_max", "count"},
		spec{"runtime.live_heap_p50_mb", "MB"},
	)
	for _, id := range experimentIDs {
		out = append(out, spec{"experiment." + id + "_s", "s"})
	}
	out = append(out,
		spec{"zeroround.trials", "count"},
		spec{"zeroround.trial_ns_p50", "ns"},
		spec{"gen.late_p99_ms", "ms"},
		spec{"gen.late_max_ms", "ms"},
		spec{"gen.sessions", "count"},
		spec{"trace.overhead_frac", "1"},
	)
	for _, p := range locPackages {
		out = append(out, spec{locMetric(p), "lines"})
	}
	return append(out, spec{"loc.total", "lines"})
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// report collects one invocation's metrics, oracle outcome and notes.
type report struct {
	workload   string
	attempted  int
	failed     int
	mismatches []string
	metrics    map[string]metric
	notes      []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}}
}

// set records a metric; n is its sample count.
func (r *report) set(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics[name] = metric{value: value, unit: unit, n: n}
}

// mismatch records an oracle failure; any mismatch fails the run.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// print writes one line per metric — the end-to-end ones first, then
// every other measured metric — then the notes, then the JSON result
// line. traced selects the JSON metric list.
func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	seen := map[string]bool{}
	line := func(s spec) {
		seen[s.name] = true
		m, ok := r.metrics[s.name]
		if !ok {
			fmt.Fprintf(w, "metric %-34s = n/a (not defined on workload %s)\n", s.name, r.workload)
			return
		}
		fmt.Fprintf(w, "metric %-34s = %.6g %s (n=%d)\n", s.name, m.value, m.unit, m.n)
	}
	for _, s := range endToEnd {
		line(s)
	}
	for _, s := range workloadOnly {
		line(s)
	}
	var rest []string
	for name := range r.metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(spec{name: name})
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(w, "MISMATCH %s\n", m)
	}

	list := endToEnd
	if traced {
		list = perLayer
	}
	out := map[string]any{}
	for _, s := range list {
		v := r.metrics[s.name].value
		out[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(r.mismatches) == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		panic(err) // only finite floats, strings and ints reach here
	}
	fmt.Fprintln(w, string(b))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// locMetric names the code-size metric of a package directory.
func locMetric(dir string) string {
	name := strings.TrimPrefix(dir, "internal/")
	if name == "." {
		name = "unifdist"
	}
	return "loc." + strings.ReplaceAll(name, "/", ".")
}
