package main

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/cluster/service"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// serviceRate is the open-loop arrival rate: one session every 1/60 s.
const serviceRate = 60

// serviceTenants is how many tenants submit.
const serviceTenants = 8

// svcClass is one session class of the service mix.
type svcClass struct {
	name   string
	weight float64
	nw     *zeroround.Network
	cfg    cluster.Config // Trials, batching, sketch and early-close settings
	faulty bool
	dists  []dist.Distribution // one is drawn per session
}

// svcSession is one scheduled arrival and, after the window, its outcome.
type svcSession struct {
	class  int
	tenant uint32
	base   uint64
	dist   int
	due    time.Time
	done   time.Time
	rep    *cluster.Report
	err    error
}

// serviceWorkload is an open loop: one generator submits a session every
// 1/60 s to one service.Service built from the zero service.Config, in a
// class sequence drawn from the seed, for eight tenants.
type serviceWorkload struct {
	classes  []svcClass
	schedule []svcSession
	svc      *service.Service
	served   chan struct{}
	dial     func() (net.Conn, error)
	warm     bool // the warm-up has run
	// Untraced figures the traced run and the ledger are compared with.
	cpuPerSession float64
	cpuNsPerVote  float64
}

// buildClasses resolves the five classes' networks and distributions.
func buildClasses(seed uint64) ([]svcClass, error) {
	tc, err := zeroround.SolveThreshold(64, 60, 1.0)
	if err != nil {
		return nil, err
	}
	thr, err := zeroround.BuildThreshold(tc)
	if err != nil {
		return nil, err
	}
	ac, err := zeroround.SolveAND(1024, 16, 1.0, 1.0/3)
	if err != nil {
		return nil, err
	}
	and, err := zeroround.BuildAND(ac)
	if err != nil {
		return nil, err
	}
	small := []dist.Distribution{dist.NewUniform(64), dist.NewTwoBump(64, 1.0, seed)}
	return []svcClass{
		{name: "thr", weight: 0.5, nw: thr, dists: small,
			cfg: cluster.Config{Trials: 32, Batch: 16}},
		{name: "andz", weight: 0.2, nw: and, dists: []dist.Distribution{dist.NewUniform(1024)},
			cfg: cluster.Config{Trials: 64, Batch: 64, Compress: true}},
		{name: "sketch", weight: 0.1, nw: thr, dists: small,
			cfg: cluster.Config{Trials: 32, Sketch: true, DomainN: 64}},
		{name: "faulty", weight: 0.1, nw: thr, dists: small, faulty: true,
			cfg: cluster.Config{Trials: 32, Batch: 8}},
		{name: "early", weight: 0.1, nw: and, dists: []dist.Distribution{dist.NewTwoBump(1024, 1.0, seed)},
			cfg: cluster.Config{Trials: 64, EarlyClose: true}},
	}, nil
}

func (w *serviceWorkload) setup(opts options) (time.Duration, error) {
	var l net.Listener
	d, err := repeatSetup(func() (err error) {
		l, err = w.build(opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	// Only the last build is served. Closing a service whose Serve has
	// just been started races its scheduler start-up, so the earlier
	// builds, which own no goroutines yet, are dropped unserved.
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.svc.Serve(l)
	}()
	return d, nil
}

// build creates a service and its in-memory listener, resolves the
// classes and draws the arrival schedule.
func (w *serviceWorkload) build(opts options) (net.Listener, error) {
	classes, err := buildClasses(opts.seed)
	if err != nil {
		return nil, err
	}
	w.classes = classes
	w.svc = service.New(service.Config{})
	l := cluster.NewPipeListener()
	w.dial = l.Dial

	n := max(int(opts.window.Seconds()*serviceRate), 1)
	g := rng.New(opts.seed)
	w.schedule = make([]svcSession, n)
	for i := range w.schedule {
		u := g.Float64()
		c := 0
		for ; c < len(classes)-1 && u >= classes[c].weight; c++ {
			u -= classes[c].weight
		}
		w.schedule[i] = svcSession{
			class:  c,
			tenant: uint32(g.Intn(serviceTenants)) + 1,
			base:   g.Uint64(),
			dist:   g.Intn(len(classes[c].dists)),
		}
	}
	return l, nil
}

// Close stops the service and waits for it to finish.
func (w *serviceWorkload) Close() error {
	if w.served == nil {
		return nil // never served
	}
	err := w.svc.Close()
	<-w.served
	return err
}

// inputs returns a session's configuration, network, distribution and
// fault plan.
func (w *serviceWorkload) inputs(s *svcSession) (cluster.Config, *zeroround.Network, dist.Distribution, *cluster.FaultPlan) {
	c := &w.classes[s.class]
	cfg := c.cfg
	cfg.BaseSeed = s.base
	var plan *cluster.FaultPlan
	if c.faulty {
		plan = &cluster.FaultPlan{Seed: s.base ^ 0x9e3779b97f4a7c15, Drop: 0.05, Dup: 0.05}
	}
	return cfg, c.nw, c.dists[s.dist], plan
}

// serviceWarmup is how long the open loop runs before the first timed
// window: node connections hold their pipes until cluster.DefaultDeadline
// (10 s) expires, so the heap reaches the steady state of a long-running
// service only after that long.
const serviceWarmup = 10 * time.Second

func (w *serviceWorkload) measure(opts options, rep *report, tr *tracer) {
	if !w.warm {
		warm := w.schedule[:min(len(w.schedule), int(serviceWarmup.Seconds()*serviceRate))]
		w.openLoop(append([]svcSession(nil), warm...), time.Now(), nil)
		w.warm = true
	}
	sessions := append([]svcSession(nil), w.schedule...)
	n := len(sessions)
	win := startWindow()
	late, inFlight := w.openLoop(sessions, win.start, tr)
	st := win.stop(time.Now())

	rep.attempted += n
	var lat []float64
	perClass := make([][]float64, len(w.classes))
	failed, rejected, votes := 0, 0, 0
	for i := range sessions {
		s := &sessions[i]
		var rej *service.RejectError
		switch {
		case errors.As(s.err, &rej):
			rejected++
			failed++
			continue
		case s.err != nil:
			failed++
			continue
		}
		ms := float64(s.done.Sub(s.due)) / 1e6
		lat = append(lat, ms)
		perClass[s.class] = append(perClass[s.class], ms)
		for _, v := range s.rep.Votes {
			votes += v
		}
	}
	rep.failed += failed
	cpuPerSession := float64(st.cpu) / 1e6 / float64(n)
	if tr == nil {
		w.cpuPerSession = cpuPerSession
		w.cpuNsPerVote = float64(st.cpu) / float64(votes)
		rep.set("session_p50_ms", quantile(lat, 0.5), "ms", len(lat))
		rep.set("session_p99_ms", quantile(lat, 0.99), "ms", len(lat))
		rep.set("sessions_per_s", float64(len(lat))/st.wall.Seconds(), "1/s", len(lat))
		rep.set("cpu_ms_per_session", cpuPerSession, "ms", n)
		rep.set("votes_per_s", float64(votes)/st.wall.Seconds(), "votes/s", votes)
		rep.set("cpu_ns_per_vote", w.cpuNsPerVote, "ns", votes)
		rep.set("failed_frac", float64(failed)/float64(n), "1", n)
		rep.set("service.rejected_frac", float64(rejected)/float64(n), "1", n)
		for c, xs := range perClass {
			rep.set("service.class_p50_ms."+w.classes[c].name, quantile(xs, 0.5), "ms", len(xs))
		}
		rep.set("service.in_flight_mean", mean(inFlight), "sessions", n)
		rep.set("service.in_flight_max", quantile(inFlight, 1), "sessions", n)
		rep.set("gen.late_p99_ms", quantile(late, 0.99), "ms", n)
		rep.set("gen.late_max_ms", quantile(late, 1), "ms", n)
		rep.set("gen.sessions", float64(n), "count", n)
		setRuntime(rep, st, votes)
	} else {
		for _, m := range []struct{ span, name string }{
			{"service.Open", "service.admit"},
			{"service.nodes", "service.nodes"},
			{"service.Client.Wait", "service.report"},
		} {
			xs := tr.durations(m.span)
			rep.set(m.name+"_p50_ms", quantile(xs, 0.5), "ms", len(xs))
			if m.name == "service.admit" {
				rep.set("service.admit_p99_ms", quantile(xs, 0.99), "ms", len(xs))
			}
		}
		nodeRuns := tr.durations("cluster.NodeClient.Run")
		rep.set("cluster.node_run_p50_ms", quantile(nodeRuns, 0.5), "ms", len(nodeRuns))
		rep.set("trace.overhead_frac", cpuPerSession/w.cpuPerSession-1, "1", n)
	}
	w.check(opts, rep, sessions)
}

// openLoop is the generator: it submits session i at start + i/60 s, each
// on its own goroutine, and waits for all of them. It returns how late
// each arrival was and how many sessions were in flight at it.
func (w *serviceWorkload) openLoop(sessions []svcSession, start time.Time, tr *tracer) (late, inFlight []float64) {
	period := time.Second / serviceRate
	late = make([]float64, len(sessions))
	inFlight = make([]float64, len(sessions))
	var open atomic.Int64
	var wg sync.WaitGroup
	for i := range sessions {
		s := &sessions[i]
		s.due = start.Add(time.Duration(i) * period)
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(s.due)) / 1e6
		inFlight[i] = float64(open.Add(1) - 1)
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			cfg, nw, d, plan := w.inputs(s)
			if tr == nil {
				s.rep, s.err = service.Submit(w.dial, cfg, nw, d, plan, s.tenant, false)
			} else {
				s.rep, s.err = tracedSubmit(tr, id, w.dial, cfg, nw, d, plan, s.tenant)
			}
			s.done = time.Now()
			open.Add(-1)
		}(uint64(i + 1))
	}
	wg.Wait()
	return late, inFlight
}

// check compares each session with its oracle: fault-free sessions with
// (*zeroround.Network).RunAt trial for trial (verdicts only for
// early-closed sessions, verdicts and rejecting counts otherwise), and
// faulty sessions with a solo cluster.RunPipe of the same configuration,
// transport statistics and early-trial counts blanked.
func (w *serviceWorkload) check(opts options, rep *report, sessions []svcSession) {
	injected := !opts.inject
	for i := range sessions {
		s := &sessions[i]
		if s.err != nil {
			continue
		}
		c := &w.classes[s.class]
		cfg, nw, d, plan := w.inputs(s)
		what := fmt.Sprintf("service session %d (%s)", i, c.name)
		if c.faulty {
			solo, err := cluster.RunPipe(cfg, nw, d, plan)
			if err != nil {
				rep.mismatch("%s: solo RunPipe: %v", what, err)
				continue
			}
			got := *s.rep
			got.Stats, got.EarlyTrials = cluster.RefereeStats{}, 0
			solo.Stats, solo.EarlyTrials = cluster.RefereeStats{}, 0
			if !reflect.DeepEqual(got, *solo) {
				rep.mismatch("%s: report differs from the solo RunPipe", what)
			}
			continue
		}
		e := expect(nw, d, s.base, cfg.Trials)
		if !injected {
			e.verdicts[0] = !e.verdicts[0]
			injected = true
		}
		e.compare(rep, what, s.rep, !cfg.EarlyClose)
	}
}

// tracedSubmit is service.Submit composed from the exported calls it
// makes, with spans around admission (service.Open), the node phase,
// each node client, and the wait for the report (Client.Wait).
func tracedSubmit(tr *tracer, id uint64, dial func() (net.Conn, error), cfg cluster.Config, nw *zeroround.Network,
	d dist.Distribution, plan *cluster.FaultPlan, tenant uint32) (*cluster.Report, error) {
	root := tr.begin("session.service", id, nil)
	defer root.end()
	open, err := service.OpenFrame(cfg, nw, tenant, false)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("service.Open", id, root)
	c, err := service.Open(dial, open)
	sp.end()
	if err != nil {
		return nil, err
	}
	ncfg := cfg
	ncfg.Session = c.WireSession()
	nodes := tr.begin("service.nodes", id, root)
	wait := runNodes(tr, id, nodes, ncfg, nw, d, plan, func(int) func() (net.Conn, error) { return dial })
	nodesDone := make(chan error, 1)
	go func() {
		err := wait()
		nodes.end()
		nodesDone <- err
	}()
	sp = tr.begin("service.Client.Wait", id, root)
	rep, werr := c.Wait()
	sp.end()
	nodeErr := <-nodesDone
	if werr != nil {
		return nil, werr
	}
	if cfg.EarlyClose || nodeErr == nil {
		return rep, nil
	}
	return rep, fmt.Errorf("service: %w", nodeErr)
}

// replay runs the stage-replay ledger on the first sessions of the
// schedule, bound to a nonzero session as the service's peers are.
func (w *serviceWorkload) replay(opts options, rep *report) error {
	var l ledger
	n := min(len(w.schedule), 240)
	for i := 0; i < n; i++ {
		cfg, nw, d, _ := w.inputs(&w.schedule[i])
		cfg.Session = uint32(i + 1)
		if err := l.replay(nw, d, cfg, 0); err != nil {
			return err
		}
	}
	l.report(rep, w.cpuNsPerVote, 0, float64(l.votes)/float64(n))
	return nil
}
