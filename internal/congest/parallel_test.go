package congest

import (
	"reflect"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
)

// TestEstimateErrorParallelWorkerInvariant pins the estimator's central
// claim: the same caller stream yields the same estimate at any worker
// count, and the caller's RNG advances identically.
func TestEstimateErrorParallelWorkerInvariant(t *testing.T) {
	g := graph.NewGrid(4, 5)
	n := 256
	p, err := SolveParamsCalibrated(n, g.N(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := dist.NewUniform(n)

	type outcome struct {
		est  float64
		next uint64
	}
	var want outcome
	for i, workers := range []int{1, 2, 3, 8} {
		r := rng.New(7)
		est, err := EstimateErrorParallel(g, d, p, true, 25, workers, r)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := outcome{est: est, next: r.Uint64()}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: (est=%v, next=%d), want (est=%v, next=%d)",
				workers, got.est, got.next, want.est, want.next)
		}
	}
}

func TestEstimateErrorParallelRejectsFar(t *testing.T) {
	g := graph.NewRandomConnected(2000, 6.0/2000, 3)
	n := 1024
	p, err := SolveParamsCalibrated(n, g.N(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	far := dist.NewHalfSupport(n)
	est, err := EstimateErrorParallel(g, far, p, false, 12, 0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if est > 1.0/3 {
		t.Fatalf("far-input error rate %v > 1/3", est)
	}
}

func TestEstimateErrorParallelPropagatesError(t *testing.T) {
	g := graph.NewRing(8)
	if _, err := EstimateErrorParallel(g, dist.NewUniform(16), Params{Tau: 1}, true, 4, 2, rng.New(1)); err == nil {
		t.Fatal("expected error for τ < 2")
	}
}

// TestTrialArenaRearmMatchesFresh checks that a re-armed trial arena
// carries nothing over between runs: every trial on one trialWorker must
// match a run on a freshly built arena, whatever ran before it.
func TestTrialArenaRearmMatchesFresh(t *testing.T) {
	const n = 256
	p := Params{Tau: 5, T: 3}
	for _, g := range []*graph.Graph{graph.NewGrid(6, 7), graph.NewLine(30), graph.NewStar(25)} {
		w := newTrialWorker(g)
		r := rng.New(3)
		dists := []dist.Distribution{dist.NewUniform(n), dist.NewTwoBump(n, 1, 9)}
		for trial := 0; trial < 6; trial++ {
			d := dists[trial%2]
			for v := range w.tokens {
				w.tokens[v] = uint64(d.Sample(r))
			}
			seed := r.Uint64()
			got, err := w.run(g, p, seed)
			if err != nil {
				t.Fatalf("%s trial %d: %v", g.Name(), trial, err)
			}
			want, err := RunUniformity(g, w.tokens, p, seed)
			if err != nil {
				t.Fatalf("%s trial %d fresh: %v", g.Name(), trial, err)
			}
			want.Packages = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: re-armed %+v, fresh %+v", g.Name(), trial, got, want)
			}
		}
	}
}

// TestTrialAllocsIndependentOfRounds pins the trial arena's allocation
// contract: once warm, a re-armed trial allocates only the simulator's
// per-run contexts — one slab plus one generator per node — so a line,
// which runs ten times the grid's rounds at the same k, allocates no more.
func TestTrialAllocsIndependentOfRounds(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops pooled engines at random")
	}
	const k = 400
	p := Params{Tau: 5, T: 3}
	var rounds [2]int
	for i, g := range []*graph.Graph{graph.NewGrid(20, 20), graph.NewLine(k)} {
		w := newTrialWorker(g)
		r := rng.New(1)
		d := dist.NewUniform(256)
		trial := func() {
			for v := range w.tokens {
				w.tokens[v] = uint64(d.Sample(r))
			}
			res, err := w.run(g, p, r.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			rounds[i] = res.Stats.Rounds
		}
		for warm := 0; warm < 3; warm++ {
			trial()
		}
		// A pool refill after a collection may add a few; k+2 leaves room.
		if allocs := testing.AllocsPerRun(20, trial); allocs > k+2 {
			t.Errorf("%s: %.1f allocations per re-armed trial over %d rounds, want ≤ %d",
				g.Name(), allocs, rounds[i], k+2)
		}
	}
	if rounds[1] < 5*rounds[0] {
		t.Fatalf("line ran %d rounds, grid %d: the pin needs a wide spread", rounds[1], rounds[0])
	}
}

// benchUniformityEngine measures one full uniformity run per iteration on
// the given simulator engine — the CONGEST-path before/after pair for the
// flat engine (BenchmarkUniformityFlat vs BenchmarkUniformityChannelRef).
func benchUniformityEngine(b *testing.B, engine func(*graph.Graph, []simnet.Node, simnet.Config) (simnet.Stats, error)) {
	b.Helper()
	n, k := 1<<12, 400
	p, err := SolveParams(n, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.NewGrid(20, 20)
	r := rng.New(1)
	d := dist.NewUniform(n)
	tokens := make([]uint64, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range tokens {
			tokens[v] = uint64(d.Sample(r))
		}
		a, err := buildNodes(g, tokens, ModeUniformity, p.Tau, p.T, nil)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := engine(g, a.sim, simnet.Config{MaxBytesPerMessage: congestBandwidth, Seed: r.Uint64()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := collectUniformity(stats, a.nodes, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformityFlat(b *testing.B)       { benchUniformityEngine(b, simnet.Run) }
func BenchmarkUniformityChannelRef(b *testing.B) { benchUniformityEngine(b, simnet.RunChannel) }

// TestUniformityEnginesAgree runs the full uniformity protocol under both
// simulator engines on a spread of topologies and requires identical
// verdicts, aggregates and stats — the congest-level differential test for
// the flat engine.
func TestUniformityEnginesAgree(t *testing.T) {
	n := 256
	topologies := []*graph.Graph{
		graph.NewLine(20),
		graph.NewRing(24),
		graph.NewStar(16),
		graph.NewGrid(4, 6),
		graph.NewBalancedTree(21, 2),
		graph.NewRandomConnected(30, 0.15, 9),
	}
	for _, g := range topologies {
		p, err := SolveParamsCalibrated(n, g.N(), 1.0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		r := rng.New(11)
		tokens := make([]uint64, g.N())
		d := dist.NewUniform(n)
		for v := range tokens {
			tokens[v] = uint64(d.Sample(r))
		}
		seed := r.Uint64()

		run := func(engine func(*graph.Graph, []simnet.Node, simnet.Config) (simnet.Stats, error)) (UniformityResult, error) {
			a, err := buildNodes(g, tokens, ModeUniformity, p.Tau, p.T, nil)
			if err != nil {
				return UniformityResult{}, err
			}
			stats, err := engine(g, a.sim, simnet.Config{MaxBytesPerMessage: congestBandwidth, Seed: seed})
			if err != nil {
				return UniformityResult{}, err
			}
			return collectUniformity(stats, a.nodes, true)
		}
		flat, ferr := run(simnet.Run)
		legacy, lerr := run(simnet.RunChannel)
		if (ferr == nil) != (lerr == nil) || (ferr != nil && ferr.Error() != lerr.Error()) {
			t.Fatalf("%s: errors differ: flat=%v legacy=%v", g.Name(), ferr, lerr)
		}
		if ferr != nil {
			continue
		}
		if flat.Accept != legacy.Accept || flat.Rejects != legacy.Rejects ||
			flat.Virtuals != legacy.Virtuals || flat.Root != legacy.Root ||
			flat.Discarded != legacy.Discarded || flat.Stats != legacy.Stats {
			t.Fatalf("%s: results differ:\nflat:   %+v\nlegacy: %+v", g.Name(), flat, legacy)
		}
	}
}
