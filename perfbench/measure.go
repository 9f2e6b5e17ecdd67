package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Runtime metrics sampled at the edges of a timed window.
const (
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rtSchedLat     = "/sched/latencies:seconds"
	rtMemTotal     = "/memory/classes/total:bytes"
	rtMemReleased  = "/memory/classes/heap/released:bytes"
	rtLiveHeap     = "/gc/heap/live:bytes"
)

// window measures one timed window: wall time, process CPU, and the
// process-wide runtime counters over it. A goroutine samples the
// goroutine count and the memory footprint every few milliseconds.
type window struct {
	start   time.Time
	cpu0    time.Duration
	rt0     []metrics.Sample
	stopped chan struct{}
	done    sync.WaitGroup
	maxG    int
	mem     []float64 // footprint samples, MB
	live    []float64 // live heap samples, MB
}

// windowStats is what a window measured.
type windowStats struct {
	wall, cpu         time.Duration
	allocs, allocByte float64
	gcCPUFrac         float64
	schedP99us        float64
	goroutinesMax     int
	// memP50MB is the median footprint: memory the runtime has mapped
	// and not returned to the OS. liveP50MB is the median live heap.
	memP50MB, liveP50MB float64
	memSamples          int
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rtAllocObjects}, {Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtSchedLat}}
	metrics.Read(s)
	return s
}

// startWindow collects garbage left over from set-up, so every window
// starts from a clean heap, and starts the clocks.
func startWindow() *window {
	runtime.GC()
	w := &window{stopped: make(chan struct{}), maxG: runtime.NumGoroutine()}
	mem := []metrics.Sample{{Name: rtMemTotal}, {Name: rtMemReleased}, {Name: rtLiveHeap}}
	sample := func() {
		if g := runtime.NumGoroutine(); g > w.maxG {
			w.maxG = g
		}
		metrics.Read(mem)
		w.mem = append(w.mem, float64(mem[0].Value.Uint64()-mem[1].Value.Uint64())/(1<<20))
		w.live = append(w.live, float64(mem[2].Value.Uint64())/(1<<20))
	}
	sample()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stopped:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	w.rt0 = readRuntime()
	w.cpu0 = cpuTime()
	w.start = time.Now()
	return w
}

// stop ends the window at time end (the last completion) and returns its
// measurements.
func (w *window) stop(end time.Time) windowStats {
	cpu := cpuTime() - w.cpu0
	close(w.stopped)
	w.done.Wait()
	// The runtime's CPU-class estimates are refreshed by a GC cycle.
	runtime.GC()
	rt1 := readRuntime()
	st := windowStats{wall: end.Sub(w.start), cpu: cpu, goroutinesMax: w.maxG,
		memP50MB: quantile(w.mem, 0.5), liveP50MB: quantile(w.live, 0.5), memSamples: len(w.mem)}
	st.allocs = float64(rt1[0].Value.Uint64() - w.rt0[0].Value.Uint64())
	st.allocByte = float64(rt1[1].Value.Uint64() - w.rt0[1].Value.Uint64())
	if total := rt1[3].Value.Float64() - w.rt0[3].Value.Float64(); total > 0 {
		st.gcCPUFrac = (rt1[2].Value.Float64() - w.rt0[2].Value.Float64()) / total
	}
	st.schedP99us = histDeltaQuantile(w.rt0[4].Value.Float64Histogram(), rt1[4].Value.Float64Histogram(), 0.99) * 1e6
	return st
}

// histDeltaQuantile returns the q-quantile of the samples a cumulative
// runtime histogram gained between a and b, as the upper bound of the
// bucket holding it.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var acc uint64
	for i, c := range delta {
		acc += c
		if acc > want {
			hi := b.Buckets[i+1]
			if hi > 1e9 { // the last bucket is unbounded above
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// setRuntime records a window's runtime metrics normalized per vote.
func setRuntime(rep *report, st windowStats, votes int) {
	if votes > 0 {
		rep.set("runtime.allocs_per_vote", st.allocs/float64(votes), "allocs", votes)
		rep.set("runtime.alloc_bytes_per_vote", st.allocByte/float64(votes), "B", votes)
	}
	rep.set("runtime.gc_cpu_frac", st.gcCPUFrac, "1", 1)
	rep.set("runtime.sched_latency_p99_us", st.schedP99us, "us", 1)
	rep.set("runtime.goroutines_max", float64(st.goroutinesMax), "count", 1)
	rep.set("mem_p50_mb", st.memP50MB, "MB", st.memSamples)
	rep.set("runtime.live_heap_p50_mb", st.liveP50MB, "MB", st.memSamples)
}

// repeatSetup runs build setupReps times and returns the median time.
// Each build starts from a collected heap, so its time does not depend on
// where the previous builds left the garbage collector.
func repeatSetup(build func() error) (time.Duration, error) {
	times := make([]time.Duration, setupReps)
	for i := range times {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times[i] = time.Since(t0)
	}
	return medianDuration(times), nil
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// locPackages are the package directories reported as loc.<pkg> metrics:
// the root package, the commands and the internal packages.
var locPackages = []string{
	".",
	"cmd/benchjson", "cmd/congestsim", "cmd/gaptest", "cmd/unifbench", "cmd/unifcluster", "cmd/unifvet",
	"internal/analysis", "internal/analysis/analysistest", "internal/cluster", "internal/cluster/service",
	"internal/congest", "internal/dist", "internal/ecc", "internal/experiment", "internal/graph",
	"internal/local", "internal/obs", "internal/obs/export", "internal/obs/trace", "internal/reduction",
	"internal/rng", "internal/simnet", "internal/smp", "internal/stats", "internal/tester",
	"internal/wire", "internal/zeroround",
}

// addLOC counts non-test Go source lines per package directory under
// root (testdata and the benchmark's own directory excluded) and records
// loc.<pkg> for the listed packages and loc.total for all of them.
func addLOC(rep *report, root string) error {
	lines := map[string]int{}
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "perfbench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := strings.Count(string(b), "\n")
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		lines[filepath.ToSlash(rel)] += n
		total += n
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range locPackages {
		rep.set(locMetric(p), float64(lines[p]), "lines", 1)
	}
	rep.set("loc.total", float64(total), "lines", 1)
	return nil
}

// cpuCount is the number of CPUs the benchmark sizes its parallelism to.
func cpuCount() int {
	return runtime.NumCPU()
}
