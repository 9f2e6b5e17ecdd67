// Package cluster executes the paper's 0-round testers over real
// connections instead of the in-process simulator: k node clients each
// draw their sample block, vote, and push the vote over a length-prefixed
// wire protocol (internal/wire) to a referee service that applies the
// network decision rule incrementally as votes arrive.
//
// The runtime is the client/server form of zeroround.Network. The two are
// tied together by the indexed randomness contract zeroround.VoteStream:
// node i's samples for trial t are a pure function of (base seed, t, i),
// so a cluster run — any connection ordering, any scheduling, any
// retransmission — produces trial-for-trial the same votes as the
// reference execution zeroround.(*Network).RunAt. Differential tests pin
// that equivalence exactly.
//
// Unlike the simulator, the transport can misbehave: a seeded FaultPlan
// drops, duplicates, delays or disconnects vote frames deterministically,
// and the referee degrades gracefully — its quorum policy decides each
// trial from the votes that arrived, recording how many went missing. This
// expresses a robustness property the simulator cannot: the measured
// network error stays within the paper's 1/3 under bounded vote loss.
//
// Topology: Referee serves any net.Listener (TCP for real deployments);
// NewPipeListener provides a buffered in-memory transport (see pipe.go)
// for single-process clusters and tests. RunPipe/RunTCP assemble the full
// referee-plus-k-nodes session either way.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// QuorumPolicy decides what the referee does with trials whose votes did
// not all arrive by the end of the run.
type QuorumPolicy int

const (
	// QuorumObserved decides each trial from the votes that arrived: the
	// decision rule is applied to the observed rejecting count over the
	// full network size, i.e. a missing vote counts as an accept. This is
	// the graceful-degradation mode: bounded vote loss shifts the verdict
	// threshold by at most the loss rate.
	QuorumObserved QuorumPolicy = iota
	// QuorumStrict requires every vote: any missing vote fails the run
	// with an error (verdicts are still reported, decided as in
	// QuorumObserved, so the caller can inspect what the quorum would have
	// said).
	QuorumStrict
)

// String returns the policy name.
func (p QuorumPolicy) String() string {
	switch p {
	case QuorumObserved:
		return "observed"
	case QuorumStrict:
		return "strict"
	default:
		return fmt.Sprintf("QuorumPolicy(%d)", int(p))
	}
}

// DefaultDeadline bounds a session when peers stall; see Config.Deadline.
const DefaultDeadline = 10 * time.Second

// QueuePolicy selects what a node's bounded send queue does when it is
// full: apply backpressure or shed load.
type QueuePolicy int

const (
	// QueueBlock applies backpressure: the sender waits for the writer to
	// drain. This is the deterministic default — every computed vote is
	// offered to the wire exactly as in the unbatched path.
	QueueBlock QueuePolicy = iota
	// QueueDrop sheds frames when the queue is full (counted in
	// cluster.queue_dropped). It trades the batched/unbatched determinism
	// guarantee for bounded latency: which frames are shed depends on
	// writer scheduling, so verdicts may differ run-to-run exactly as they
	// would on a saturated real link.
	QueueDrop
)

// String returns the policy name.
func (p QueuePolicy) String() string {
	switch p {
	case QueueBlock:
		return "block"
	case QueueDrop:
		return "drop"
	default:
		return fmt.Sprintf("QueuePolicy(%d)", int(p))
	}
}

// DefaultFlushBytes is the byte watermark at which a partially-filled
// batch is flushed to the send queue.
const DefaultFlushBytes = 8 << 10

// DefaultQueueDepth is the per-peer send-queue bound, in frames.
const DefaultQueueDepth = 16

// Config holds the session parameters shared by the referee and every
// node client.
type Config struct {
	// Trials is the number of Monte-Carlo trials voted on in this session.
	Trials int
	// BaseSeed fixes the indexed randomness of every (trial, node) sample
	// stream (zeroround.VoteStream) and thereby the entire run.
	BaseSeed uint64
	// Policy decides trials with missing votes; see QuorumPolicy.
	Policy QuorumPolicy
	// EarlyClose lets the referee shut the session down as soon as every
	// trial's verdict is fixed (EarlyDecider rules can fix a verdict
	// before all votes arrive). Verdicts are unchanged; only trailing
	// traffic is saved. Nodes still mid-submission observe their
	// connection closing, which is expected, so loopback harnesses ignore
	// node-side errors once the referee closed early.
	EarlyClose bool
	// Sketch switches the nodes to submitting raw collision sketches
	// (wire.Sketch) instead of precomputed votes; the referee derives the
	// vote as Collisions > 0. Valid only for single-collision testers
	// (the threshold rule), where that derivation is the tester.
	Sketch bool
	// DomainN is the sample domain size, required in Sketch mode to run
	// the collision statistic.
	DomainN int
	// Deadline bounds the whole session at the referee and each node
	// client I/O attempt; 0 means DefaultDeadline. It is a safety net
	// against stalled peers — fault-free runs finish on protocol events
	// (all votes in, or all nodes done), never on the clock.
	Deadline time.Duration
	// Retries is how many times a node client redials and resubmits after
	// a transport error; Backoff is the sleep before the first retry
	// (doubling each attempt).
	Retries int
	Backoff time.Duration
	// Obs, when non-nil, receives connection/vote/fault metrics. Nil
	// disables telemetry.
	Obs *obs.Registry
	// Batch, when ≥ 2, switches node clients to the high-throughput path:
	// up to Batch votes are coalesced into each wire.VoteBatch frame
	// (clamped to wire.MaxBatchVotes) and written through a bounded send
	// queue. 0 or 1 keeps the one-frame-per-vote path. Batching never
	// changes verdicts: the referee applies batched votes through the same
	// dedup/rule/quorum pipeline, and differential tests pin batched runs
	// trial-for-trial identical to unbatched ones.
	Batch int
	// Compress block-compresses batch payloads ≥ wire.MinCompressibleSize
	// when that strictly saves wire bytes (wire.BatchEncoder). Only
	// meaningful with Batch ≥ 2.
	Compress bool
	// FlushBytes is the byte watermark flushing a partially-filled batch
	// (0 = DefaultFlushBytes). Flushes happen on watermarks and explicit
	// protocol points only — never on a wall-clock timer — so the batched
	// path stays deterministic.
	FlushBytes int
	// QueueDepth bounds each node's send queue in frames (0 =
	// DefaultQueueDepth); QueuePolicy picks blocking backpressure or load
	// shedding when it fills.
	QueueDepth  int
	QueuePolicy QueuePolicy
	// Session binds every frame this configuration sends — and every frame
	// its referee accepts — to a session ID through the wire session
	// suffix. 0, the default, sends frames without the suffix.
	// The multi-tenant service (internal/cluster/service) assigns nonzero
	// IDs so many concurrent sessions share one transport endpoint; the
	// referee rejects frames whose session does not match as bad frames.
	Session uint32
	// MetricSuffix, when non-empty, is appended verbatim to every sink
	// metric name (e.g. ";session=3"), which the Prometheus exporter
	// (internal/obs/export) renders as labels. The service sets it per
	// session slot so each slot gets its own labeled series under a
	// cardinality bounded by the session quota.
	MetricSuffix string
	// Trace, when non-nil, emits causally-linked spans for the session
	// (node sample → frame send → referee apply → verdict) into the
	// tracer's journal and stamps vote frames with the wire trace-context
	// suffix. Tracing is observability only: verdicts, vote payloads and
	// decision flow are unchanged — only the vote frame encoding grows by
	// the 16-byte context, which shows up in the byte accounting but never
	// in a verdict.
	Trace *trace.Tracer
}

// deadline resolves the configured deadline.
func (c Config) deadline() time.Duration {
	if c.Deadline <= 0 {
		return DefaultDeadline
	}
	return c.Deadline
}

// batchSize resolves the effective batch size: 0 when batching is off
// (Batch < 2), otherwise Batch clamped to the wire cap.
func (c Config) batchSize() int {
	if c.Batch < 2 {
		return 0
	}
	if c.Batch > wire.MaxBatchVotes {
		return wire.MaxBatchVotes
	}
	return c.Batch
}

// flushBytes resolves the batch flush watermark.
func (c Config) flushBytes() int {
	if c.FlushBytes <= 0 {
		return DefaultFlushBytes
	}
	return c.FlushBytes
}

// queueDepth resolves the send-queue bound.
func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return DefaultQueueDepth
	}
	return c.QueueDepth
}

// Report is the referee's account of one session.
type Report struct {
	Outcome
	// EarlyTrials counts trials fixed by the rule's EarlyDecider before
	// all their votes arrived: at which vote a trial was fixed depends on
	// arrival order, so two runs of one session may differ here.
	EarlyTrials int `json:"early_trials"`
	// Stats aggregates transport-level accounting.
	Stats RefereeStats `json:"stats"`
}

// Outcome is the deterministic part of a Report: what each trial decided
// and on which votes. Runs of one session — flat star, aggregation tree,
// service-hosted, batched or not, under the same seeded fault plan — have
// reflect.DeepEqual Outcomes; EarlyTrials and Stats record how the run
// got there.
type Outcome struct {
	// K and Trials echo the session shape.
	K      int `json:"k"`
	Trials int `json:"trials"`
	// Verdicts[t] is trial t's network verdict (true = accept); Rejects[t]
	// the rejecting votes observed; Votes[t] the votes that arrived;
	// Missing[t] the votes a quorum decision had to do without (0 for
	// trials decided on full or early-decided information).
	Verdicts []bool `json:"verdicts"`
	Rejects  []int  `json:"rejects"`
	Votes    []int  `json:"votes"`
	Missing  []int  `json:"missing"`
	// Accepts counts accepting trials; MissingVotes sums Missing.
	Accepts      int `json:"accepts"`
	MissingVotes int `json:"missing_votes"`
	// QuorumTrials counts trials decided by the quorum fallback.
	QuorumTrials int `json:"quorum_trials"`
}

// ErrorRate returns the fraction of trials whose verdict differs from
// wantAccept — the cluster analogue of zeroround.EstimateError.
func (r *Report) ErrorRate(wantAccept bool) float64 {
	if r.Trials == 0 {
		return 0
	}
	wrong := 0
	for _, a := range r.Verdicts {
		if a != wantAccept {
			wrong++
		}
	}
	return float64(wrong) / float64(r.Trials)
}

// RefereeStats is the transport-level accounting of one session.
type RefereeStats struct {
	// Connections counts accepted connections (retries reconnect, so this
	// can exceed k); Frames and Bytes count everything received.
	Connections int   `json:"connections"`
	Frames      int   `json:"frames"`
	Bytes       int64 `json:"bytes"`
	// Votes counts distinct (trial, node) votes recorded; DuplicateVotes
	// the deduplicated resubmissions; BadFrames the frames rejected by
	// validation (range, identity or codec errors).
	Votes          int `json:"votes"`
	DuplicateVotes int `json:"duplicate_votes"`
	BadFrames      int `json:"bad_frames"`
	// BatchFrames counts VoteBatch frames received and BatchedVotes the
	// votes they carried; BytesSaved sums the wire bytes compressed
	// batches saved versus their raw encoding.
	BatchFrames  int   `json:"batch_frames,omitempty"`
	BatchedVotes int   `json:"batched_votes,omitempty"`
	BytesSaved   int64 `json:"bytes_saved,omitempty"`
	// PartialFrames counts PartialVerdict frames folded and PartialVotes
	// the votes they carried (also counted in Votes); DuplicatePartials
	// the (trial, child) entries deduplicated as retransmissions. All zero
	// in flat-star sessions.
	PartialFrames     int `json:"partial_frames,omitempty"`
	PartialVotes      int `json:"partial_votes,omitempty"`
	DuplicatePartials int `json:"duplicate_partials,omitempty"`
	// IdlePeers counts nodes that had finished their stream (Done) and
	// were idling on the verdict when the session finalized — protocol
	// state, not wall-clock idleness.
	IdlePeers int `json:"idle_peers,omitempty"`
	// EarlyClosed reports the session ended because every verdict was
	// fixed; DeadlineExpired that the safety-net deadline fired.
	EarlyClosed     bool `json:"early_closed,omitempty"`
	DeadlineExpired bool `json:"deadline_expired,omitempty"`
}

// RunPipe executes one full session in-process over in-memory pipes:
// a referee for nw's rule plus one node client per network node, faults
// injected per plan (nil plan = clean links). It returns the referee's
// report; node-side errors fail the run only when the referee did not
// close the session early (see Config.EarlyClose).
func RunPipe(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan) (*Report, error) {
	l := NewPipeListener()
	return runSession(cfg, nw, d, plan, l, l.Dial)
}

// RunTCP is RunPipe over a real TCP loopback listener.
func RunTCP(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan) (*Report, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	addr := l.Addr().String()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	return runSession(cfg, nw, d, plan, l, dial)
}

// runSession starts the referee on l, launches nw.K() node clients that
// connect via dial, and reconciles both sides' outcomes.
func runSession(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan, l net.Listener, dial func() (net.Conn, error)) (*Report, error) {
	k := nw.K()
	rf := NewReferee(k, nw.Rule(), cfg)

	type nodeErr struct {
		node int
		err  error
	}
	errCh := make(chan nodeErr, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		nc := &NodeClient{
			ID:     i,
			K:      k,
			Tester: nw.Node(i),
			Config: cfg,
			Dial:   dial,
			Faults: plan,
		}
		go func(i int, nc *NodeClient) {
			defer wg.Done()
			if _, err := nc.Run(d); err != nil {
				errCh <- nodeErr{node: i, err: err}
			}
		}(i, nc)
	}

	rep, err := rf.Serve(l)
	wg.Wait()
	close(errCh)
	if err != nil {
		return rep, err
	}
	for ne := range errCh {
		// Early close severs connections of nodes whose verdicts were no
		// longer needed; their errors are expected, not failures.
		if rep != nil && rep.Stats.EarlyClosed {
			continue
		}
		return rep, fmt.Errorf("cluster: node %d: %w", ne.node, ne.err)
	}
	return rep, nil
}
