package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// clusterShape is the one session shape of the cluster workload.
type clusterShape struct {
	n, k, trials, batch int
	fanout, depth       int
}

// clusterSize returns the workload's shape: threshold rule, n=2^16,
// k=2000 (51 samples per node per trial, T=51), 64 trials, batch 128
// with compression, trees of fanout 32 and depth 1.
func clusterSize(tiny bool) clusterShape {
	if tiny {
		return clusterShape{n: 1 << 12, k: 64, trials: 16, batch: 32, fanout: 8, depth: 1}
	}
	return clusterShape{n: 1 << 16, k: 2000, trials: 64, batch: 128, fanout: 32, depth: 1}
}

// clusterWorkload runs a closed loop of one client alternating flat-star
// (cluster.RunPipe) and aggregation-tree (cluster.RunTreePipe) sessions
// on the same inputs. Pair j runs the uniform distribution for even j
// and TwoBump(ε=1) for odd j, under a base seed drawn from the workload
// seed, so the star and the tree of a pair see identical inputs.
type clusterWorkload struct {
	shape   clusterShape
	nw      *zeroround.Network
	uniform dist.Distribution
	far     dist.Distribution
	// Untraced figures the traced run and the ledger are compared with.
	cpuPerSession float64
	cpuNsPerVote  float64
}

// clusterSession is one finished session of the loop.
type clusterSession struct {
	pair int
	tree bool
	wall time.Duration
	rep  *cluster.Report
	err  error
}

func (w *clusterWorkload) build(opts options) error {
	w.shape = clusterSize(opts.tiny)
	tc, err := zeroround.SolveThreshold(w.shape.n, w.shape.k, 1.0)
	if err != nil {
		return err
	}
	if w.nw, err = zeroround.BuildThreshold(tc); err != nil {
		return err
	}
	w.uniform = dist.NewUniform(w.shape.n)
	w.far = dist.NewTwoBump(w.shape.n, 1.0, opts.seed)
	return nil
}

func (w *clusterWorkload) setup(opts options) (time.Duration, error) {
	return repeatSetup(func() error { return w.build(opts) })
}

// input returns pair j's distribution and base seed.
func (w *clusterWorkload) input(seed uint64, pair int) (dist.Distribution, uint64) {
	base := rng.At(seed, uint64(pair)).Uint64()
	if pair%2 == 0 {
		return w.uniform, base
	}
	return w.far, base
}

func (w *clusterWorkload) config(base uint64) cluster.Config {
	return cluster.Config{Trials: w.shape.trials, BaseSeed: base, Batch: w.shape.batch, Compress: true}
}

func (w *clusterWorkload) measure(opts options, rep *report, tr *tracer) {
	sh := w.shape
	votes := sh.k * sh.trials
	var sessions []clusterSession
	win := startWindow()
	deadline := win.start.Add(opts.window)
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		d, base := w.input(opts.seed, pair)
		cfg := w.config(base)
		for _, tree := range []bool{false, true} {
			id := uint64(2*pair + 1)
			t0 := time.Now()
			var r *cluster.Report
			var err error
			switch {
			case tr == nil && !tree:
				r, err = cluster.RunPipe(cfg, w.nw, d, nil)
			case tr == nil:
				r, err = cluster.RunTreePipe(cfg, w.nw, d, nil, sh.fanout, sh.depth)
			case !tree:
				r, err = tracedStar(tr, id, cfg, w.nw, d)
			default:
				r, err = tracedTree(tr, id+1, cfg, w.nw, d, sh.fanout, sh.depth)
			}
			sessions = append(sessions, clusterSession{pair: pair, tree: tree, wall: time.Since(t0), rep: r, err: err})
		}
	}
	st := win.stop(time.Now())

	rep.attempted += len(sessions)
	var walls []float64
	var failed, starVotes, treeVotes, frames, dups, missing, bad int
	var starWall, treeWall time.Duration
	for _, s := range sessions {
		walls = append(walls, float64(s.wall)/1e6)
		if s.err != nil {
			failed++
			continue
		}
		if s.tree {
			treeVotes += votes
			treeWall += s.wall
		} else {
			starVotes += votes
			starWall += s.wall
		}
		frames += s.rep.Stats.Frames
		dups += s.rep.Stats.DuplicateVotes
		missing += s.rep.MissingVotes
		bad += s.rep.Stats.BadFrames
	}
	rep.failed += failed
	n := len(sessions)
	total := n * votes
	cpuPerSession := float64(st.cpu) / 1e6 / float64(n)
	if tr == nil {
		w.cpuPerSession = cpuPerSession
		w.cpuNsPerVote = float64(st.cpu) / float64(total)
		rep.set("session_p50_ms", quantile(walls, 0.5), "ms", n)
		rep.set("sessions_per_s", float64(n)/st.wall.Seconds(), "1/s", n)
		rep.set("cpu_ms_per_session", cpuPerSession, "ms", n)
		rep.set("votes_per_s", float64(total)/st.wall.Seconds(), "votes/s", total)
		rep.set("cpu_ns_per_vote", w.cpuNsPerVote, "ns", total)
		rep.set("failed_frac", float64(failed)/float64(n), "1", n)
		rep.set("cluster.star_votes_per_s", float64(starVotes)/starWall.Seconds(), "votes/s", starVotes)
		rep.set("cluster.tree_votes_per_s", float64(treeVotes)/treeWall.Seconds(), "votes/s", treeVotes)
		rep.set("cluster.frames_per_vote", float64(frames)/float64(total), "1", total)
		rep.set("cluster.dup_votes", float64(dups), "count", n)
		rep.set("cluster.missing_votes", float64(missing), "count", n)
		rep.set("cluster.bad_frames", float64(bad), "count", n)
		setRuntime(rep, st, total)
	} else {
		nodeRuns := tr.durations("cluster.NodeClient.Run")
		rep.set("cluster.node_run_p50_ms", quantile(nodeRuns, 0.5), "ms", len(nodeRuns))
		serves := tr.durations("cluster.Referee.Serve")
		rep.set("cluster.referee_serve_ms", quantile(serves, 0.5), "ms", len(serves))
		aggs := tr.durations("cluster.Aggregator.Serve")
		rep.set("cluster.agg_serve_ms", quantile(aggs, 0.5), "ms", len(aggs))
		rep.set("trace.overhead_frac", cpuPerSession/w.cpuPerSession-1, "1", n)
	}
	w.check(opts, rep, sessions)
}

// check compares every session with the reference execution
// (*zeroround.Network).RunAt, trial for trial: verdicts and rejecting
// counts must match and no vote may be missing.
func (w *clusterWorkload) check(opts options, rep *report, sessions []clusterSession) {
	want := map[int]*expectation{}
	for _, s := range sessions {
		if s.err != nil {
			continue
		}
		e := want[s.pair]
		if e == nil {
			d, base := w.input(opts.seed, s.pair)
			e = expect(w.nw, d, base, w.shape.trials)
			if opts.inject && s.pair == 0 {
				e.verdicts[0] = !e.verdicts[0]
			}
			want[s.pair] = e
		}
		kind := "star"
		if s.tree {
			kind = "tree"
		}
		e.compare(rep, fmt.Sprintf("cluster pair %d %s", s.pair, kind), s.rep, true)
		if s.rep.MissingVotes != 0 {
			rep.mismatch("cluster pair %d %s: %d votes missing on clean links", s.pair, kind, s.rep.MissingVotes)
		}
	}
}

// expectation is the reference outcome of one session's trials.
type expectation struct {
	verdicts []bool
	rejects  []int
}

// expect runs RunAt for every trial of a session, spread over the CPUs.
func expect(nw *zeroround.Network, d dist.Distribution, base uint64, trials int) *expectation {
	e := &expectation{verdicts: make([]bool, trials), rejects: make([]int, trials)}
	workers := cpuCount()
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			g := rng.New(0)
			sc := nw.NewScratch()
			for t := wk; t < trials; t += workers {
				e.verdicts[t], e.rejects[t] = nw.RunAt(d, base, uint64(t), g, sc)
			}
		}(wk)
	}
	wg.Wait()
	return e
}

// compare checks a report against the expectation: verdicts always,
// rejecting counts when withRejects (early-closed sessions stop counting
// once every verdict is fixed).
func (e *expectation) compare(rep *report, what string, r *cluster.Report, withRejects bool) {
	if len(r.Verdicts) != len(e.verdicts) || len(r.Rejects) != len(e.rejects) {
		rep.mismatch("%s: %d verdicts, want %d", what, len(r.Verdicts), len(e.verdicts))
		return
	}
	for t := range e.verdicts {
		if r.Verdicts[t] != e.verdicts[t] {
			rep.mismatch("%s: trial %d verdict accept=%v, RunAt says %v", what, t, r.Verdicts[t], e.verdicts[t])
			return
		}
		if withRejects && r.Rejects[t] != e.rejects[t] {
			rep.mismatch("%s: trial %d rejects=%d, RunAt says %d", what, t, r.Rejects[t], e.rejects[t])
			return
		}
	}
}

// runNodes launches one cluster.NodeClient per network node, each inside
// a span, and returns a function that waits for them all and returns the
// first node error (nil when every node succeeded).
func runNodes(tr *tracer, trace uint64, parent *span, cfg cluster.Config, nw *zeroround.Network, d dist.Distribution,
	plan *cluster.FaultPlan, dial func(node int) func() (net.Conn, error)) func() error {
	k := nw.K()
	errCh := make(chan error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		nc := &cluster.NodeClient{ID: i, K: k, Tester: nw.Node(i), Config: cfg, Dial: dial(i), Faults: plan}
		go func() {
			defer wg.Done()
			sp := tr.begin("cluster.NodeClient.Run", trace, parent)
			_, err := nc.Run(d)
			sp.end()
			if err != nil {
				errCh <- fmt.Errorf("node %d: %w", nc.ID, err)
			}
		}()
	}
	return func() error {
		wg.Wait()
		close(errCh)
		return <-errCh
	}
}

// tracedStar is cluster.RunPipe composed from the exported calls it
// makes, with spans around each node client and the referee.
func tracedStar(tr *tracer, id uint64, cfg cluster.Config, nw *zeroround.Network, d dist.Distribution) (*cluster.Report, error) {
	root := tr.begin("session.star", id, nil)
	defer root.end()
	l := cluster.NewPipeListener()
	rf := cluster.NewReferee(nw.K(), nw.Rule(), cfg)
	wait := runNodes(tr, id, root, cfg, nw, d, nil, func(int) func() (net.Conn, error) { return l.Dial })
	sp := tr.begin("cluster.Referee.Serve", id, root)
	rep, err := rf.Serve(l)
	sp.end()
	nodeErr := wait()
	if err != nil {
		return rep, err
	}
	if nodeErr != nil && !(rep != nil && rep.Stats.EarlyClosed) {
		return rep, nodeErr
	}
	return rep, nil
}

// tracedTree is cluster.RunTreePipe composed from the exported calls it
// makes: a root referee, depth tiers of aggregators over contiguous
// windows of at most fanout children, and the node clients, each inside
// a span.
func tracedTree(tr *tracer, id uint64, cfg cluster.Config, nw *zeroround.Network, d dist.Distribution, fanout, depth int) (*cluster.Report, error) {
	root := tr.begin("session.tree", id, nil)
	defer root.end()
	k := nw.K()
	rf := cluster.NewReferee(k, nw.Rule(), cfg)
	rootL := cluster.NewPipeListener()
	var (
		aggWG   sync.WaitGroup
		aggMu   sync.Mutex
		aggErrs []error
	)
	leafDial := make([]func() (net.Conn, error), k)
	nextID := uint32(0)
	var build func(lo, hi, tier int, dial func() (net.Conn, error))
	build = func(lo, hi, tier int, dial func() (net.Conn, error)) {
		if tier == 0 {
			for n := lo; n < hi; n++ {
				leafDial[n] = dial
			}
			return
		}
		width := hi - lo
		chunks := min(fanout, width)
		for c := 0; c < chunks; c++ {
			clo, chi := lo+c*width/chunks, lo+(c+1)*width/chunks
			l := cluster.NewPipeListener()
			agg := &cluster.Aggregator{ID: nextID, Lo: clo, Hi: chi, K: k, Tier: tier, Dial: dial, Config: cfg}
			nextID++
			aggWG.Add(1)
			go func() {
				defer aggWG.Done()
				sp := tr.begin("cluster.Aggregator.Serve", id, root)
				err := agg.Serve(l)
				sp.end()
				if err != nil {
					aggMu.Lock()
					aggErrs = append(aggErrs, err)
					aggMu.Unlock()
				}
			}()
			build(clo, chi, tier-1, l.Dial)
		}
	}
	build(0, k, depth, rootL.Dial)
	wait := runNodes(tr, id, root, cfg, nw, d, nil, func(i int) func() (net.Conn, error) { return leafDial[i] })
	sp := tr.begin("cluster.Referee.Serve", id, root)
	rep, err := rf.Serve(rootL)
	sp.end()
	nodeErr := wait()
	aggWG.Wait()
	if err != nil {
		return rep, err
	}
	if rep != nil && rep.Stats.EarlyClosed {
		return rep, nil
	}
	if nodeErr != nil {
		return rep, nodeErr
	}
	if len(aggErrs) > 0 {
		return rep, aggErrs[0]
	}
	return rep, nil
}

// replay runs the stage-replay ledger on the first two pairs' inputs
// (one uniform, one far).
func (w *clusterWorkload) replay(opts options, rep *report) error {
	var l ledger
	for pair := 0; pair < 2; pair++ {
		d, base := w.input(opts.seed, pair)
		if err := l.replay(w.nw, d, w.config(base), w.shape.fanout); err != nil {
			return err
		}
	}
	// Half the sessions are trees, whose votes also pass a partial fold.
	l.report(rep, w.cpuNsPerVote, 0.5, float64(w.shape.k*w.shape.trials))
	return nil
}
