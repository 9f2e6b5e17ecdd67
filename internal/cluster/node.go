package cluster

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// NodeClient is one network node speaking the cluster protocol: it draws
// its sample block for every trial from the indexed randomness contract
// (zeroround.VoteStream), runs its local tester, and submits the resulting
// votes — or raw collision sketches in Config.Sketch mode — to the
// referee, retrying on a fresh connection after transport errors.
type NodeClient struct {
	// ID is this node's index in [0, K); K the network size. Both are
	// echoed in the Hello handshake and validated by the referee.
	ID int
	K  int
	// Tester is the node's local tester (zeroround.(*Network).Node(ID)).
	Tester tester.Tester
	// Config carries the session parameters; it must match the referee's.
	Config Config
	// Dial opens a fresh connection to the referee.
	Dial func() (net.Conn, error)
	// Faults, when non-nil and active, injects transport faults into this
	// node's vote frames; see FaultPlan.
	Faults *FaultPlan
}

// Run computes the node's votes for every trial and submits them,
// returning the referee's verdict broadcast. Votes are computed once, up
// front — retries resubmit identical frames, so transport faults can
// lose or duplicate votes but never change them. A session the referee
// closed before sending a verdict returns an error; callers running
// under Config.EarlyClose treat that as expected.
func (nc *NodeClient) Run(d dist.Distribution) (wire.Verdict, error) {
	cfg := nc.Config
	if cfg.Trials <= 0 {
		return wire.Verdict{}, fmt.Errorf("cluster: node %d: Trials must be > 0, got %d", nc.ID, cfg.Trials)
	}
	if cfg.Sketch && cfg.DomainN <= 0 {
		return wire.Verdict{}, fmt.Errorf("cluster: node %d: Sketch mode needs DomainN > 0", nc.ID)
	}

	// With tracing off the session span and its attributes are never
	// built (trace.A boxes node IDs ≥ 256).
	var sess *trace.Span
	if cfg.Trace.Enabled() {
		sess = cfg.Trace.Start("node.session", trace.Context{}, trace.A("node", nc.ID))
	}
	defer sess.End()

	frames, err := nc.computeFrames(d, sess.Context())
	if err != nil {
		return wire.Verdict{}, err
	}

	backoff := cfg.Backoff
	var lastErr error
	for attempt := 0; attempt <= cfg.Retries; attempt++ {
		if attempt > 0 {
			nc.Config.Obs.Counter("cluster.node_retries").Inc()
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		var v wire.Verdict
		if cfg.batchSize() > 0 {
			v, err = nc.submitBatched(frames, attempt)
		} else {
			v, err = nc.submit(frames, attempt)
		}
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	return wire.Verdict{}, fmt.Errorf("cluster: node %d: %w", nc.ID, lastErr)
}

// outFrame is one precomputed submission — its vote or sketch as a flat
// VoteBatch record — plus the trace position of the sample computation
// that produced it (zero when tracing is off).
type outFrame struct {
	vote   wire.BatchVote
	parent trace.Context
}

// nodeScratch is a node's working memory for computing its frames: the
// collision scratch (a domain-sized stamp array once warm) and the sample
// block. computeFrames borrows one from nodeScratchPool only while it
// computes, and at most nodeComputeSlots nodes compute at once, so a
// session of k nodes keeps about GOMAXPROCS of them warm instead of
// allocating k.
type nodeScratch struct {
	col   dist.CollisionScratch
	block []int
	g     rng.RNG
}

var nodeScratchPool = sync.Pool{New: func() any { return new(nodeScratch) }}

// nodeComputeSlots bounds the nodes computing frames at once to the CPUs
// that can run them. The pool alone does not: a borrower that parks
// mid-computation — in a GC assist, typically, paying for its first
// stamp array — leaves the pool empty, so the next runnable node
// allocates a scratch of its own and parks in turn. At k = 2000 that
// cascade held 50–500 MB of stamp arrays at once.
var nodeComputeSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// computeFrames runs the node's tester for every trial and records the
// submission as flat vote records. The sample stream of trial t is fixed
// by (BaseSeed, t, ID) alone, so the records are a pure function of the
// configuration — independent of scheduling, attempts, or the other
// nodes.
func (nc *NodeClient) computeFrames(d dist.Distribution, sess trace.Context) ([]outFrame, error) {
	nodeComputeSlots <- struct{}{}
	defer func() { <-nodeComputeSlots }()
	sc := nodeScratchPool.Get().(*nodeScratch)
	defer nodeScratchPool.Put(sc)
	s := nc.Tester.SampleSize()
	if cap(sc.block) < s {
		sc.block = make([]int, s)
	}
	block := sc.block[:s]
	g := &sc.g
	st, _ := nc.Tester.(tester.ScratchTester)
	tr := nc.Config.Trace

	frames := make([]outFrame, 0, nc.Config.Trials)
	for t := 0; t < nc.Config.Trials; t++ {
		// The sample span's ID is derived from (trace, trial, node), so a
		// rerun of the same configuration yields the same span graph. With
		// tracing off the ID and attributes are never built.
		var sp *trace.Span
		if tr.Enabled() {
			sp = tr.StartID("node.sample",
				trace.Derive("node.sample", uint64(tr.Trace()), uint64(t), uint64(nc.ID)),
				sess, trace.A("trial", t))
		}
		zeroround.VoteStream(g, nc.Config.BaseSeed, uint64(t), nc.ID, nc.K)
		dist.SampleInto(d, block, g)
		v := wire.BatchVote{Trial: uint32(t), Node: uint32(nc.ID)}
		if nc.Config.Sketch {
			// Raw sketch: the referee derives the single-collision vote as
			// Collisions > 0, so this mode is only valid for testers where
			// that derivation IS the test.
			v.Samples = uint32(s)
			v.Collisions = uint32(sc.col.CountCollisions(nc.Config.DomainN, block))
		} else if st != nil {
			v.Reject = !st.TestScratch(block, &sc.col)
		} else {
			v.Reject = !nc.Tester.Test(block)
		}
		sp.End()
		frames = append(frames, outFrame{vote: v, parent: sp.Context()})
	}
	return frames, nil
}

// submit performs one connection attempt: handshake, vote stream, Done,
// then blocks for the referee's verdict.
func (nc *NodeClient) submit(frames []outFrame, attempt int) (wire.Verdict, error) {
	conn, err := nc.Dial()
	if err != nil {
		return wire.Verdict{}, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	// Per-attempt I/O bound: if the referee stalls or the link injects a
	// disconnect mid-stream, the attempt fails here and the retry path
	// takes over rather than hanging the node forever.
	conn.SetDeadline(time.Now().Add(nc.Config.deadline())) //unifvet:allow wallclock per-attempt I/O safety bound; votes are precomputed and unaffected

	tr := nc.Config.Trace
	lk := newLink(conn, nc.Faults, nc.ID, attempt, nc.Config.Obs, nc.Config.Session)
	hello := &wire.Hello{Node: uint32(nc.ID), K: uint32(nc.K), Trials: uint32(nc.Config.Trials)}
	if err := lk.sendControl(hello); err != nil {
		return wire.Verdict{}, fmt.Errorf("hello: %w", err)
	}
	// Each record's Vote or Sketch frame is built at send time, in one
	// frame value reused across the stream.
	var vote wire.Vote
	var sketch wire.Sketch
	for _, of := range frames {
		var out wire.Frame
		if v := of.vote; nc.Config.Sketch {
			sketch = wire.Sketch{Trial: v.Trial, Node: v.Node, Samples: v.Samples, Collisions: v.Collisions}
			out = &sketch
		} else {
			vote = wire.Vote{Trial: v.Trial, Node: v.Node, Reject: v.Reject}
			out = &vote
		}
		// The send span's ID rides the frame as its wire trace context, so
		// the referee's apply span can parent on it across the connection.
		var sp *trace.Span
		var tc wire.TraceContext
		if tr.Enabled() {
			sp = tr.Start("node.send", of.parent, trace.A("attempt", attempt))
			ctx := sp.Context()
			tc = wire.TraceContext{Trace: uint64(ctx.Trace), Span: uint64(ctx.Span)}
		}
		err := lk.sendVote(out, tc)
		sp.End()
		if err != nil {
			return wire.Verdict{}, fmt.Errorf("vote: %w", err)
		}
	}
	if err := lk.sendControl(&wire.Done{Node: uint32(nc.ID)}); err != nil {
		return wire.Verdict{}, fmt.Errorf("done: %w", err)
	}

	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		return wire.Verdict{}, fmt.Errorf("verdict: %w", err)
	}
	v, ok := f.(*wire.Verdict)
	if !ok {
		return wire.Verdict{}, fmt.Errorf("verdict: unexpected frame type %d", f.Type())
	}
	return *v, nil
}

// submitBatched is the high-throughput variant of submit: votes coalesce
// into VoteBatch frames behind a bounded send queue instead of one write
// per vote. The fault plan draws the identical per-vote stream as the
// per-frame path (FaultPlan.decide), so a faulty batched run realizes the
// same delivered-vote multiset: drops skip the vote, dups pack it twice
// (the referee dedups), and a disconnect first drains the pending batch —
// mirroring the per-frame path, where earlier votes were already on the
// wire when the link died.
func (nc *NodeClient) submitBatched(frames []outFrame, attempt int) (wire.Verdict, error) {
	cfg := nc.Config
	conn, err := nc.Dial()
	if err != nil {
		return wire.Verdict{}, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(cfg.deadline())) //unifvet:allow wallclock per-attempt I/O safety bound; votes are precomputed and unaffected

	var sent, dropped *obs.Counter
	if cfg.Obs != nil {
		sent = cfg.Obs.Counter(fmt.Sprintf("cluster.peer.%d.sent", nc.ID))
		dropped = cfg.Obs.Counter(fmt.Sprintf("cluster.peer.%d.dropped", nc.ID))
	}
	var g *rng.RNG
	if nc.Faults.Active() {
		g = rng.At(nc.Faults.Seed, linkID(nc.ID, attempt))
	}

	q := newSendQueue(conn, cfg.queueDepth(), cfg.QueuePolicy, cfg.Obs, "cluster")
	defer q.Close()
	sess := trace.Context{}
	if len(frames) > 0 {
		sess = frames[0].parent
	}
	bt := newBatcher(q, cfg, sess, sent)

	hello := &wire.Hello{Node: uint32(nc.ID), K: uint32(nc.K), Trials: uint32(cfg.Trials)}
	if err := q.send(wire.AppendSession(q.buffer(), hello, cfg.Session, wire.TraceContext{})); err != nil {
		return wire.Verdict{}, fmt.Errorf("hello: %w", err)
	}
	for _, of := range frames {
		action := faultDeliver
		if g != nil {
			action = nc.Faults.decide(g, cfg.Obs)
		}
		switch action {
		case faultDisconnect:
			// Drain what the per-frame path would already have written, then
			// kill the link so the retry path takes over.
			bt.flush()
			q.Flush()
			conn.Close()
			return wire.Verdict{}, fmt.Errorf("vote: link disconnected by fault plan")
		case faultDrop:
			dropped.Inc()
			continue
		case faultDup:
			if err := bt.add(of.vote); err != nil {
				return wire.Verdict{}, fmt.Errorf("vote: %w", err)
			}
			if err := bt.add(of.vote); err != nil {
				return wire.Verdict{}, fmt.Errorf("vote: %w", err)
			}
		default:
			if err := bt.add(of.vote); err != nil {
				return wire.Verdict{}, fmt.Errorf("vote: %w", err)
			}
		}
	}
	if err := bt.flush(); err != nil {
		return wire.Verdict{}, err
	}
	if err := q.send(wire.AppendSession(q.buffer(), &wire.Done{Node: uint32(nc.ID)}, cfg.Session, wire.TraceContext{})); err != nil {
		return wire.Verdict{}, fmt.Errorf("done: %w", err)
	}
	// Graceful drain: every queued frame must reach the kernel before we
	// block on the verdict, and before EarlyClose can tear the session down
	// under us with votes still buffered.
	if err := q.Flush(); err != nil {
		return wire.Verdict{}, fmt.Errorf("drain: %w", err)
	}

	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		return wire.Verdict{}, fmt.Errorf("verdict: %w", err)
	}
	v, ok := f.(*wire.Verdict)
	if !ok {
		return wire.Verdict{}, fmt.Errorf("verdict: unexpected frame type %d", f.Type())
	}
	return *v, nil
}
