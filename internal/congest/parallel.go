package congest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
)

// EstimateErrorParallel is EstimateError with trials fanned out across
// worker goroutines (0 means GOMAXPROCS). The result is bit-for-bit
// deterministic in r at any worker count:
//
//   - trial i's randomness is derived by index — rng.SeedAt(base, i) for a
//     base drawn once from r — so the tokens and simulator seed of a trial
//     depend on neither scheduling nor the worker count;
//   - workers claim chunks of trial indices from one atomic counter
//     (work-stealing) and fold verdicts into per-worker partial sums; the
//     total is a commutative sum, so the estimate is schedule-independent;
//   - each trial's simulator runs single-threaded (simnet.Config.Workers=1)
//     so trial-level parallelism is not oversubscribed by node-level
//     parallelism, on its worker's trial arena, which Init fully resets,
//     so a trial's outcome does not depend on what the worker ran before;
//   - on error the failure of the lowest trial index wins, which is what a
//     sequential loop over the same indexed streams would report first.
//
// The sequential EstimateError draws tokens straight from r, so the two
// estimators sample different (equally valid) trial sets; only
// EstimateErrorParallel is invariant under its workers argument.
func EstimateErrorParallel(g *graph.Graph, d dist.Distribution, p Params, wantAccept bool, trials, workers int, r *rng.RNG) (float64, error) {
	if p.Tau < 2 {
		return 0, fmt.Errorf("congest: package size τ=%d < 2", p.Tau)
	}
	if trials <= 0 {
		return 0, nil
	}
	// One draw fixes every trial's randomness and advances r by the same
	// amount at any worker count.
	base := r.Uint64()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	// runRange executes trials [lo, hi) on worker-owned scratch and reports
	// the wrong-verdict count plus the first (lowest-index) failure.
	runRange := func(lo, hi int, w *trialWorker) (int, int, error) {
		wrong := 0
		for i := lo; i < hi; i++ {
			w.gen.SeedAt(base, uint64(i))
			for v := range w.tokens {
				w.tokens[v] = uint64(d.Sample(&w.gen))
			}
			res, err := w.run(g, p, w.gen.Uint64())
			if err != nil {
				return wrong, i, err
			}
			if res.Accept != wantAccept {
				wrong++
			}
		}
		return wrong, -1, nil
	}

	if workers == 1 {
		wrong, _, err := runRange(0, trials, newTrialWorker(g))
		if err != nil {
			return 0, err
		}
		return float64(wrong) / float64(trials), nil
	}

	chunk := trials / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 64 {
		chunk = 64
	}
	var (
		next, total atomic.Int64
		wg          sync.WaitGroup
		mu          sync.Mutex
		firstIdx    = trials
		firstErr    error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			tw := newTrialWorker(g)
			local := 0
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= trials {
					break
				}
				hi := lo + chunk
				if hi > trials {
					hi = trials
				}
				wrong, idx, err := runRange(lo, hi, tw)
				local += wrong
				if err != nil {
					mu.Lock()
					if idx < firstIdx {
						firstIdx, firstErr = idx, err
					}
					mu.Unlock()
					break
				}
			}
			total.Add(int64(local))
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(int(total.Load())) / float64(trials), nil
}

// trialWorker is one estimator worker's trial arena: a node arena on the
// graph, the trial's samples and its generator, all re-armed per trial.
type trialWorker struct {
	arena  *arena
	tokens []uint64
	gen    rng.RNG
}

func newTrialWorker(g *graph.Graph) *trialWorker {
	return &trialWorker{arena: newArena(g), tokens: make([]uint64, g.N())}
}

// run is one estimator trial on w.tokens: a single-threaded simulation
// (trial-level parallelism already saturates the cores) with no tracer.
func (w *trialWorker) run(g *graph.Graph, p Params, seed uint64) (UniformityResult, error) {
	if err := w.arena.armSingle(w.tokens, ModeUniformity, p.Tau, p.T, nil); err != nil {
		return UniformityResult{}, err
	}
	stats, err := simnet.Run(g, w.arena.sim, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Seed:               seed,
		Workers:            1,
	})
	if err != nil {
		return UniformityResult{}, err
	}
	return collectUniformity(stats, w.arena.nodes, false)
}
