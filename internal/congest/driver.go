package congest

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
)

// congestBandwidth is the simulator's CONGEST budget in bytes per edge per
// round: 16 bytes = 128 bits = Θ(log n) for every domain this library
// targets.
const congestBandwidth = 16

// Bandwidth returns the simulator's CONGEST budget in bytes per edge per
// round, for tracers reporting bandwidth utilization against it.
func Bandwidth() int { return congestBandwidth }

// PackagingResult reports a τ-token-packaging execution (Theorem 5.1).
type PackagingResult struct {
	// Stats is the simulator's round/message accounting.
	Stats simnet.Stats
	// Packages is every package output by any node.
	Packages [][]uint64
	// PerNodePackages[v] is the number of packages node v output.
	PerNodePackages []int
	// Discarded is the number of tokens the root discarded (≤ τ−1).
	Discarded int
	// Root is the elected leader (the maximum ID).
	Root int
}

// RunTokenPackaging solves τ-token packaging on g: node v starts with
// tokens[v], and the nodes collectively output packages of exactly tau
// tokens with at most tau−1 tokens lost (discarded at the root).
func RunTokenPackaging(g *graph.Graph, tokens []uint64, tau int, seed uint64) (PackagingResult, error) {
	return RunTokenPackagingTraced(g, tokens, tau, seed, nil)
}

// RunTokenPackagingTraced is RunTokenPackaging with a simulator tracer
// attached (see simnet.Tracer), used by cmd/congestsim -trace.
func RunTokenPackagingTraced(g *graph.Graph, tokens []uint64, tau int, seed uint64, tracer simnet.Tracer) (PackagingResult, error) {
	return RunTokenPackagingTracedWorkers(g, tokens, tau, seed, tracer, 0)
}

// RunTokenPackagingTracedWorkers is RunTokenPackagingTraced with an explicit
// bound on the simulator's node-execution pool (0 means GOMAXPROCS); the
// result is identical at any value.
func RunTokenPackagingTracedWorkers(g *graph.Graph, tokens []uint64, tau int, seed uint64, tracer simnet.Tracer, workers int) (PackagingResult, error) {
	a, err := buildNodes(g, tokens, ModePackagingOnly, tau, 0, nil)
	if err != nil {
		return PackagingResult{}, err
	}
	stats, err := simnet.Run(g, a.sim, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Seed:               seed,
		Tracer:             tracer,
		Workers:            workers,
	})
	if err != nil {
		return PackagingResult{}, err
	}
	res := PackagingResult{
		Stats:           stats,
		PerNodePackages: make([]int, g.N()),
		Root:            -1,
	}
	for v := range a.nodes {
		nd := &a.nodes[v]
		if nd.Err() != nil {
			return PackagingResult{}, fmt.Errorf("congest: node %d: %w", v, nd.Err())
		}
		res.Packages = nd.appendPackages(res.Packages)
		res.PerNodePackages[v] = int(nd.packages)
		if nd.isRoot() {
			if res.Root != -1 {
				return PackagingResult{}, fmt.Errorf("congest: multiple roots %d and %d", res.Root, v)
			}
			res.Root = v
			res.Discarded = int(nd.discarded)
		}
	}
	if res.Root == -1 {
		return PackagingResult{}, fmt.Errorf("congest: no root elected")
	}
	return res, nil
}

// UniformityResult reports a full Theorem 1.4 execution.
type UniformityResult struct {
	// Accept is the network's verdict (true = "uniform").
	Accept bool
	// Rejects and Virtuals are the root's aggregated counts of rejecting
	// packages and total packages.
	Rejects, Virtuals int
	// Stats, Packages, Discarded and Root are as in PackagingResult.
	Stats     simnet.Stats
	Packages  [][]uint64
	Discarded int
	Root      int
	// DiscoveredK is the network size the root learned from the completion
	// echoes; Tau and T are the parameters actually used (equal to the
	// configured ones, or solver-derived in the unknown-k extension).
	DiscoveredK int
	Tau, T      int
}

// RunUniformity runs the CONGEST uniformity tester with one sample per node
// (tokens[v] is node v's sample from the unknown distribution).
func RunUniformity(g *graph.Graph, tokens []uint64, p Params, seed uint64) (UniformityResult, error) {
	return RunUniformityTraced(g, tokens, p, seed, nil)
}

// RunUniformityTraced is RunUniformity with a simulator tracer attached.
func RunUniformityTraced(g *graph.Graph, tokens []uint64, p Params, seed uint64, tracer simnet.Tracer) (UniformityResult, error) {
	return RunUniformityTracedWorkers(g, tokens, p, seed, tracer, 0)
}

// RunUniformityTracedWorkers is RunUniformityTraced with an explicit bound
// on the simulator's node-execution pool (0 means GOMAXPROCS). The verdict,
// stats and trace are identical at any value — cmd/congestsim -workers
// exposes the knob so CI can diff runs at different counts.
func RunUniformityTracedWorkers(g *graph.Graph, tokens []uint64, p Params, seed uint64, tracer simnet.Tracer, workers int) (UniformityResult, error) {
	if p.Tau < 2 {
		return UniformityResult{}, fmt.Errorf("congest: package size τ=%d < 2", p.Tau)
	}
	a, err := buildNodes(g, tokens, ModeUniformity, p.Tau, p.T, nil)
	if err != nil {
		return UniformityResult{}, err
	}
	stats, err := simnet.Run(g, a.sim, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Seed:               seed,
		Tracer:             tracer,
		Workers:            workers,
	})
	if err != nil {
		return UniformityResult{}, err
	}
	return collectUniformity(stats, a.nodes, true)
}

// collectUniformity gathers the per-node outcomes of a uniformity run;
// Packages is filled only when packages is set, and then aliases the
// nodes' token buffers.
func collectUniformity(stats simnet.Stats, nodes []node, packages bool) (UniformityResult, error) {
	res := UniformityResult{
		Stats: stats,
		Root:  -1,
	}
	for v := range nodes {
		nd := &nodes[v]
		if nd.Err() != nil {
			return UniformityResult{}, fmt.Errorf("congest: node %d: %w", v, nd.Err())
		}
		if nd.decision < 0 {
			return UniformityResult{}, fmt.Errorf("congest: node %d ended without a decision", v)
		}
		if packages {
			res.Packages = nd.appendPackages(res.Packages)
		}
		if nd.isRoot() {
			if res.Root != -1 {
				return UniformityResult{}, fmt.Errorf("congest: multiple roots %d and %d", res.Root, v)
			}
			res.Root = v
			res.Discarded = int(nd.discarded)
			res.Accept = nd.decision == 1
			res.Rejects = int(nd.totalRejects)
			res.Virtuals = int(nd.totalVirtuals)
			res.DiscoveredK = int(nd.treeSize)
			res.Tau = int(nd.tau)
			res.T = int(nd.t)
		}
	}
	if res.Root == -1 {
		return UniformityResult{}, fmt.Errorf("congest: no root elected")
	}
	return res, nil
}

// RunUniformityOnDistribution draws one sample per node from d and runs the
// uniformity protocol.
func RunUniformityOnDistribution(g *graph.Graph, d dist.Distribution, p Params, r *rng.RNG) (UniformityResult, error) {
	return RunUniformityOnDistributionTraced(g, d, p, r, nil)
}

// RunUniformityOnDistributionTraced is RunUniformityOnDistribution with a
// simulator tracer attached.
func RunUniformityOnDistributionTraced(g *graph.Graph, d dist.Distribution, p Params, r *rng.RNG, tracer simnet.Tracer) (UniformityResult, error) {
	tokens := make([]uint64, g.N())
	for v := range tokens {
		tokens[v] = uint64(d.Sample(r))
	}
	return RunUniformityTraced(g, tokens, p, r.Uint64(), tracer)
}

// RunUniformityUnknownK runs the uniformity protocol without telling the
// nodes the network size: the elected root discovers k from the completion
// echoes, derives (τ, T) with the calibrated solver, and broadcasts them
// with the start signal — an extension beyond the paper, which assumes k
// is known to all nodes.
func RunUniformityUnknownK(g *graph.Graph, tokens []uint64, n int, eps float64, seed uint64) (UniformityResult, error) {
	solver := func(k int) (int, int, error) {
		p, err := SolveParamsCalibrated(n, k, eps)
		if err != nil {
			return 0, 0, err
		}
		return p.Tau, p.T, nil
	}
	a, err := buildNodes(g, tokens, ModeUniformity, 0, 0, solver)
	if err != nil {
		return UniformityResult{}, err
	}
	stats, err := simnet.Run(g, a.sim, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Seed:               seed,
	})
	if err != nil {
		return UniformityResult{}, err
	}
	return collectUniformity(stats, a.nodes, true)
}

// EstimateError runs trials executions on fresh samples from d and returns
// the fraction of wrong verdicts, where wantAccept is the correct verdict.
func EstimateError(g *graph.Graph, d dist.Distribution, p Params, wantAccept bool, trials int, r *rng.RNG) (float64, error) {
	wrong := 0
	for i := 0; i < trials; i++ {
		res, err := RunUniformityOnDistribution(g, d, p, r)
		if err != nil {
			return 0, err
		}
		if res.Accept != wantAccept {
			wrong++
		}
	}
	return float64(wrong) / float64(trials), nil
}

// buildNodes returns a fresh arena on g armed with one sample per node.
func buildNodes(g *graph.Graph, tokens []uint64, mode Mode, tau, threshold int, solver func(k int) (int, int, error)) (*arena, error) {
	a := newArena(g)
	return a, a.armSingle(tokens, mode, tau, threshold, solver)
}

// RunUniformityMulti runs the uniformity protocol with s ≥ 1 samples per
// node — the paper's "generalizes in a straightforward manner to larger s":
// node v contributes every sample in tokensPerNode[v] to the token
// pipeline.
func RunUniformityMulti(g *graph.Graph, tokensPerNode [][]uint64, p Params, seed uint64) (UniformityResult, error) {
	if p.Tau < 2 {
		return UniformityResult{}, fmt.Errorf("congest: package size τ=%d < 2", p.Tau)
	}
	a := newArena(g)
	if err := a.armMulti(tokensPerNode, ModeUniformity, p.Tau, p.T, nil); err != nil {
		return UniformityResult{}, err
	}
	stats, err := simnet.Run(g, a.sim, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Seed:               seed,
	})
	if err != nil {
		return UniformityResult{}, err
	}
	return collectUniformity(stats, a.nodes, true)
}
