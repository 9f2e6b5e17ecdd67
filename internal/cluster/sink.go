package cluster

import (
	"net"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
)

// voteSink is the connection-terminating half shared by the Referee and
// the Aggregator: it accepts peer connections, runs each through the one
// frame dispatch (Handshake, then Peer.Apply; see session.go), and folds
// their deduplicated votes into per-trial sums. The multi-tenant service
// reaches the same dispatch through a Referee's promoted Handshake. What
// happens when a trial's tally advances is the owner's business — the
// referee runs its incremental decision rule, an aggregator watches for
// window completion — expressed through the onTrial hook, called under
// the sink mutex after every fold.
//
// A sink terminates the contiguous node-ID window [lo, hi) of a k-node
// network; the root referee's window is the whole network, an
// aggregator's is its shard. Peers are either direct leaves (Hello) or
// child aggregators (AggHello). Registration keeps them mutually
// exclusive — a leaf cannot claim a node inside a registered aggregator
// window and aggregator windows are pairwise disjoint — and partial
// entries are bounded by their sender's window width, so votes[t] can
// never exceed hi-lo and completion (votes[t] == hi-lo) means every node
// in the window was folded exactly once.
type voteSink struct {
	k      int // global network size (validated against Hello.K)
	lo, hi int // node-ID window [lo, hi) this sink terminates
	span   int // hi - lo
	cfg    Config
	reg    *obs.Registry
	prefix string // metric namespace: "cluster" (referee) or "agg"
	spanNS string // span namespace: "referee" or "agg"
	m      sinkMetrics

	// onTrial is invoked under mu after every vote or partial entry folded
	// into trial, so the owner can advance its decision/completion state.
	onTrial func(trial int)

	mu        sync.Mutex
	voted     []uint64 // (trial, local node) dedup bitset, span*trials bits
	votes     []int    // per-trial votes folded (direct + partial)
	rejects   []int
	samples   []uint64 // sketch-mode per-trial sums; nil in vote mode
	collides  []uint64
	direct    []bool // local node claimed by a direct leaf Hello
	nodeDone  []bool // by local node index
	doneCount int
	aggs      []*aggPeer
	conns     []net.Conn
	closed    bool
	stats     RefereeStats

	trigger     chan struct{}
	triggerOnce sync.Once
}

// aggPeer is one registered child aggregator: its window and the
// per-trial dedup bitset that makes retransmitted partials idempotent.
// Re-registration (a retrying child redialing) reuses the peer, so dedup
// state survives reconnects.
type aggPeer struct {
	id     uint32
	lo, hi int
	seen   []uint64 // per-trial dedup bitset
}

// sinkMetrics caches the hot-path counters so the per-vote path costs
// one atomic add instead of a registry map lookup per event. All fields
// no-op when telemetry is off (nil-registry metrics are nil no-ops).
type sinkMetrics struct {
	votes       *obs.Counter
	votesDup    *obs.Counter
	badFrames   *obs.Counter
	frames      *obs.Counter
	batchSaved  *obs.Counter // <prefix>.batch_bytes_saved
	batchFill   *obs.Histogram
	dedup       *obs.Gauge
	peersIdle   *obs.Gauge   // <prefix>.peers_idle: nodes that sent Done
	fanin       *obs.Counter // agg.fanin: child aggregators registered
	partials    *obs.Counter // <prefix>.partials: partial frames folded
	partialsDup *obs.Counter // <prefix>.partials_dup: deduplicated entries
}

// init prepares the sink for one session terminating [lo, hi) of a
// k-node network, with metrics under prefix and spans under spanNS.
func (s *voteSink) init(k, lo, hi int, cfg Config, prefix, spanNS string) {
	span := hi - lo
	s.k, s.lo, s.hi, s.span = k, lo, hi, span
	s.cfg = cfg
	s.reg = cfg.Obs
	s.prefix = prefix
	s.spanNS = spanNS
	s.voted = make([]uint64, (span*cfg.Trials+63)/64)
	s.votes = make([]int, cfg.Trials)
	s.rejects = make([]int, cfg.Trials)
	if cfg.Sketch {
		s.samples = make([]uint64, cfg.Trials)
		s.collides = make([]uint64, cfg.Trials)
	}
	s.direct = make([]bool, span)
	s.nodeDone = make([]bool, span)
	s.trigger = make(chan struct{})
	if s.reg == nil {
		// Telemetry off: every metric is a nil no-op and no name is built.
		s.m = sinkMetrics{}
		return
	}
	s.m = sinkMetrics{
		votes:       s.reg.Counter(s.metricName("votes")),
		votesDup:    s.reg.Counter(s.metricName("votes_dup")),
		badFrames:   s.reg.Counter(s.metricName("bad_frames")),
		frames:      s.reg.Counter(s.metricName("frames")),
		batchSaved:  s.reg.Counter(s.metricName("batch_bytes_saved")),
		batchFill:   s.reg.Histogram(s.metricName("batch_fill"), obs.BytesBuckets()),
		dedup:       s.reg.Gauge(s.metricName("dedup_occupancy")),
		peersIdle:   s.reg.Gauge(s.metricName("peers_idle")),
		fanin:       s.reg.Counter("agg.fanin" + cfg.MetricSuffix),
		partials:    s.reg.Counter(s.metricName("partials")),
		partialsDup: s.reg.Counter(s.metricName("partials_dup")),
	}
}

// metricName builds one sink metric name: the namespace prefix, the base
// name, and the config's label suffix (";k=v", rendered as Prometheus
// labels by the exporter; empty outside the multi-tenant service).
func (s *voteSink) metricName(name string) string {
	return s.prefix + "." + name + s.cfg.MetricSuffix
}

// acceptLoop runs the listener until it closes, spawning one handler per
// connection. wg tracks the handlers; Add happens inside the critical
// section — the owner's finalize sets closed under the same mutex, so no
// handler can appear after the session closed and before wg.Wait.
func (s *voteSink) acceptLoop(l net.Listener, deadline time.Duration, wg *sync.WaitGroup) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns = append(s.conns, conn)
		s.stats.Connections++
		wg.Add(1)
		s.mu.Unlock()
		if s.reg != nil {
			s.reg.Counter(s.metricName("connections")).Inc()
		}
		go func() {
			defer wg.Done()
			// Absolute per-connection read bound: a stalled peer cannot
			// hold its handler past the session deadline.
			end := time.Now().Add(deadline) //unifvet:allow wallclock connection-deadline safety net; verdicts depend only on which votes arrive
			s.handle(conn, end)
		}()
	}
}

// handle drives one connection through the shared frame dispatch: it
// reads and decodes each frame, checks the session binding, keeps the
// per-connection telemetry, and hands the first frame to Handshake and
// every later one to Peer.Apply. Any error — transport, codec, session
// or protocol — ends the connection: a violation counts one bad frame
// and closes it. A Done marker releases the handler but leaves the
// connection open for the verdict broadcast.
func (s *voteSink) handle(conn net.Conn, end time.Time) {
	conn.SetReadDeadline(end)
	r := wire.NewReader(conn)
	// The connection's metrics, and the per-frame-type decode and apply
	// latency histograms, are resolved once per connection. With telemetry
	// off they stay nil (never timed, no metric names built), so the hot
	// path pays no clock reads or string building by default.
	var frameBytes *obs.Histogram
	var decodeNS, applyNS [wire.TypePartialVerdict + 1]*obs.Histogram
	if s.reg != nil {
		frameBytes = s.reg.Histogram(s.metricName("frame_bytes"), obs.BytesBuckets())
		connected := s.reg.Gauge(s.metricName("peers_connected"))
		connected.Add(1)
		defer connected.Add(-1)
		for t := wire.TypeHello; t <= wire.TypePartialVerdict; t++ {
			name := wire.TypeName(t)
			decodeNS[t] = s.reg.Histogram(s.metricName("decode_ns."+name), obs.LatencyBuckets())
			applyNS[t] = s.reg.Histogram(s.metricName("apply_ns."+name), obs.LatencyBuckets())
		}
	}
	// Per-connection decode scratch: steady-state vote, batch and partial
	// decoding reuses these buffers, so the hot loop does not allocate per
	// frame.
	var sc wire.DecodeScratch
	var peer *Peer // set by the handshake frame
	for {
		body, err := r.ReadBody()
		if err != nil {
			// EOF, peer close, injected disconnect, or framing error:
			// framing errors count as a bad frame, transport ends either way.
			if s.fail(err) {
				conn.Close()
			}
			return
		}
		var t0 time.Time
		if s.reg != nil {
			t0 = time.Now() //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
		}
		f, tc, sess, err := wire.DecodeBodySession(body, &sc)
		if err != nil || sess != s.cfg.Session {
			// A codec error, or a frame bound to another session (or a
			// sessionless frame on a session-bound sink): terminate the
			// transport so a misdirected peer's votes cannot leak across
			// sessions.
			s.countBadFrame()
			conn.Close()
			return
		}
		ft := f.Type()
		// A compressed batch decodes to the same VoteBatch frame; attribute
		// its latency samples to the votebatchz series.
		if vb, ok := f.(*wire.VoteBatch); ok && vb.Compressed {
			ft = wire.TypeVoteBatchZ
		}
		timed := s.reg != nil && int(ft) < len(decodeNS)
		if timed {
			decodeNS[ft].Observe(int64(time.Since(t0))) //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
			t0 = time.Now()                             //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
		}
		// Wire bytes as received: the frame body plus the length prefix.
		// (EncodedSizeTraced would re-encode raw and misreport compressed
		// batches.)
		n := len(body) + 4
		frameBytes.Observe(int64(n))
		done := false
		if peer == nil {
			s.countFrame(n) // Apply counts every later frame
			peer, err = s.Handshake(f)
		} else {
			done, err = peer.Apply(f, tc, n)
		}
		if err != nil {
			conn.Close()
			return
		}
		if timed {
			applyNS[ft].Observe(int64(time.Since(t0))) //unifvet:allow wallclock latency histogram sample; enabled only with telemetry, never read by decisions
		}
		if done {
			return
		}
	}
}

// registerLeaf claims a node ID for a direct leaf connection; it fails
// when a registered child aggregator's window covers the node, keeping
// the votes[t] ≤ span invariant (the node's votes would arrive twice:
// raw and folded into the aggregator's partial sums).
func (s *voteSink) registerLeaf(node int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.aggs {
		if node >= p.lo && node < p.hi {
			return false
		}
	}
	s.direct[node-s.lo] = true
	return true
}

// registerAgg validates and registers a child aggregator's window. A
// reconnecting child (same ID, same window) reuses its existing peer so
// the partial dedup bitset survives the retry; anything inconsistent —
// shape mismatch, window outside the sink's, overlap with another
// aggregator or with a direct leaf — is rejected.
func (s *voteSink) registerAgg(h *wire.AggHello) *aggPeer {
	if int(h.K) != s.k || int(h.Trials) != s.cfg.Trials {
		return nil
	}
	lo, hi := int(h.Lo), int(h.Hi)
	if lo < s.lo || hi > s.hi { // the codec already enforced lo < hi
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.aggs {
		if p.id == h.Agg {
			if p.lo == lo && p.hi == hi {
				return p // reconnect: dedup state survives
			}
			return nil
		}
		if lo < p.hi && p.lo < hi {
			return nil // overlapping aggregator windows
		}
	}
	for n := lo; n < hi; n++ {
		if s.direct[n-s.lo] {
			return nil // a direct leaf already claimed a covered node
		}
	}
	p := &aggPeer{id: h.Agg, lo: lo, hi: hi,
		seen: make([]uint64, (s.cfg.Trials+63)/64)}
	s.aggs = append(s.aggs, p)
	s.m.fanin.Inc()
	return p
}

// apply records one vote under a <spanNS>.apply span parented on the
// frame's wire trace context, linking the sink's side of the trace to
// the node's send span across the connection.
func (s *voteSink) apply(trial, node int, reject bool, samples, collisions uint64, tc wire.TraceContext) {
	if !s.cfg.Trace.Enabled() {
		s.record(trial, node, reject, samples, collisions)
		return
	}
	sp := s.cfg.Trace.Start(s.spanNS+".apply",
		trace.Context{Trace: trace.ID(tc.Trace), Span: trace.ID(tc.Span)},
		trace.A("trial", trial), trace.A("node", node))
	s.record(trial, node, reject, samples, collisions)
	sp.End()
}

// applyBatch records a whole VoteBatch under one mutex acquisition: the
// incremental fold, dedup bitset and done bookkeeping see the batch as
// the same sequence of per-vote record calls the unbatched path makes,
// just without k lock round-trips. When tracing is on, the batch gets an
// apply span parented on the frame's wire context, and each vote a
// derived child span — so a batched trace keeps per-vote granularity.
func (s *voteSink) applyBatch(b *wire.VoteBatch, node int, tc wire.TraceContext) {
	var sp *trace.Span
	ctx := trace.Context{Trace: trace.ID(tc.Trace), Span: trace.ID(tc.Span)}
	if s.cfg.Trace.Enabled() {
		sp = s.cfg.Trace.Start(s.spanNS+".applybatch", ctx,
			trace.A("node", node), trace.A("votes", len(b.Votes)),
			trace.A("compressed", b.Compressed))
		ctx = sp.Context()
	}
	s.mu.Lock()
	if !s.closed {
		s.stats.BatchFrames++
		s.stats.BatchedVotes += len(b.Votes)
		s.stats.BytesSaved += int64(b.Saved)
		for i := range b.Votes {
			v := &b.Votes[i]
			reject := v.Reject
			if b.Sketch {
				reject = v.Collisions > 0
			}
			s.recordLocked(int(v.Trial), node, reject, uint64(v.Samples), uint64(v.Collisions))
		}
	}
	s.mu.Unlock()
	s.m.batchFill.Observe(int64(len(b.Votes)))
	s.m.batchSaved.Add(int64(b.Saved))
	if sp != nil {
		for i := range b.Votes {
			v := &b.Votes[i]
			vsp := s.cfg.Trace.StartID(s.spanNS+".apply",
				trace.Derive(s.spanNS+".apply", uint64(ctx.Trace), uint64(v.Trial), uint64(node)),
				ctx, trace.A("trial", int(v.Trial)), trace.A("node", node))
			vsp.End()
		}
		sp.End()
	}
}

// applyPartial merges a child aggregator's per-trial partial sums under
// one mutex acquisition. Each (trial, child) pair folds exactly once —
// the peer's seen bitset deduplicates retransmitted entries, so a
// retrying child replaying its flushed log is idempotent. Entry validity
// is bounded by the sender's window: a partial claiming more votes than
// the window holds is a bad frame, which keeps votes[t] ≤ span and the
// completion/quorum arithmetic exact.
func (s *voteSink) applyPartial(pv *wire.PartialVerdict, peer *aggPeer, tc wire.TraceContext) {
	var sp *trace.Span
	if s.cfg.Trace.Enabled() {
		sp = s.cfg.Trace.Start(s.spanNS+".applypartial",
			trace.Context{Trace: trace.ID(tc.Trace), Span: trace.ID(tc.Span)},
			trace.A("agg", int(pv.Agg)), trace.A("entries", len(pv.Entries)))
	}
	width := peer.hi - peer.lo
	s.mu.Lock()
	if !s.closed {
		if pv.Sketch != (s.samples != nil) {
			// Mode mismatch: sketch sums into a vote-mode session or vice
			// versa would silently drop columns.
			s.stats.BadFrames++
			s.m.badFrames.Inc()
		} else {
			s.stats.PartialFrames++
			for i := range pv.Entries {
				e := &pv.Entries[i]
				trial := int(e.Trial)
				if trial < 0 || trial >= s.cfg.Trials || int(e.Votes) > width {
					s.stats.BadFrames++
					s.m.badFrames.Inc()
					continue
				}
				if peer.seen[trial/64]&(1<<(trial%64)) != 0 {
					s.stats.DuplicatePartials++
					s.m.partialsDup.Inc()
					continue
				}
				peer.seen[trial/64] |= 1 << (trial % 64)
				s.votes[trial] += int(e.Votes)
				s.rejects[trial] += int(e.Rejects)
				if s.samples != nil {
					s.samples[trial] += e.Samples
					s.collides[trial] += e.Collisions
				}
				s.stats.Votes += int(e.Votes)
				s.stats.PartialVotes += int(e.Votes)
				s.m.votes.Add(int64(e.Votes))
				s.m.dedup.Set(float64(s.stats.Votes) / float64(s.span*s.cfg.Trials))
				if s.onTrial != nil {
					s.onTrial(trial)
				}
			}
		}
	}
	s.mu.Unlock()
	s.m.partials.Inc()
	if sp != nil {
		sp.End()
	}
}

// record registers one deduplicated vote and notifies the owner.
func (s *voteSink) record(trial, node int, reject bool, samples, collisions uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.recordLocked(trial, node, reject, samples, collisions)
}

// recordLocked is record's body; callers hold s.mu and have checked
// s.closed.
func (s *voteSink) recordLocked(trial, node int, reject bool, samples, collisions uint64) {
	if trial < 0 || trial >= s.cfg.Trials {
		s.stats.BadFrames++
		s.m.badFrames.Inc()
		return
	}
	idx := trial*s.span + (node - s.lo)
	if s.voted[idx/64]&(1<<(idx%64)) != 0 {
		s.stats.DuplicateVotes++
		s.m.votesDup.Inc()
		return
	}
	s.voted[idx/64] |= 1 << (idx % 64)
	s.votes[trial]++
	if reject {
		s.rejects[trial]++
	}
	if s.samples != nil {
		s.samples[trial] += samples
		s.collides[trial] += collisions
	}
	s.stats.Votes++
	s.m.votes.Inc()
	// Fraction of the (trial, node) dedup bitset that is set — a live
	// progress probe for the export server.
	s.m.dedup.Set(float64(s.stats.Votes) / float64(s.span*s.cfg.Trials))
	if s.onTrial != nil {
		s.onTrial(trial)
	}
}

// markDone registers a leaf's Done marker; the sink fires when every
// node in its window reported done.
func (s *voteSink) markDone(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.nodeDone[node-s.lo] {
		return
	}
	s.nodeDone[node-s.lo] = true
	s.doneCount++
	// Idle-peer accounting: a node that sent Done holds its connection
	// open only for the verdict broadcast.
	s.m.peersIdle.Add(1)
	if s.doneCount == s.span {
		s.fire()
	}
}

// markDoneRange registers a child aggregator's Done: the child only
// sends it after every leaf in its window reported done, so the whole
// window is marked at once.
func (s *voteSink) markDoneRange(peer *aggPeer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for n := peer.lo; n < peer.hi; n++ {
		if s.nodeDone[n-s.lo] {
			continue
		}
		s.nodeDone[n-s.lo] = true
		s.doneCount++
		s.m.peersIdle.Add(1)
	}
	if s.doneCount == s.span {
		s.fire()
	}
}

// fire triggers session finalization once; callers hold s.mu.
func (s *voteSink) fire() {
	s.triggerOnce.Do(func() { close(s.trigger) })
}

// countFrame accounts one received frame of n wire bytes (body plus
// length prefix).
func (s *voteSink) countFrame(n int) {
	s.mu.Lock()
	s.stats.Frames++
	s.stats.Bytes += int64(n)
	s.mu.Unlock()
	s.m.frames.Inc()
}

// countBadFrame tallies a rejected frame.
// fail counts err as one bad frame unless it is an orderly end of
// stream, and reports which; see Peer.Fail.
func (s *voteSink) fail(err error) bool {
	if isClosedErr(err) {
		return false
	}
	s.countBadFrame()
	return true
}

func (s *voteSink) countBadFrame() {
	s.mu.Lock()
	s.stats.BadFrames++
	s.mu.Unlock()
	s.m.badFrames.Inc()
}
