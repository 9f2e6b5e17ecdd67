// Frame dispatch for every host. A peer connection opens with one
// handshake frame (Hello or AggHello) and then streams votes, batches,
// partial sums and a Done marker. Handshake and Apply below are the only
// code that interprets those frames: the Referee's and the Aggregator's
// connection handler (voteSink.handle) drive them frame by frame, and
// the multi-tenant service (internal/cluster/service), which terminates
// the transport itself and multiplexes many sessions on one listener,
// drives the same pair from its scheduler. A frame that violates the
// protocol counts one bad frame and returns an error; every host then
// terminates the connection, so nothing it sends afterwards folds. That
// single path is what keeps a multiplexed session's Outcome identical to
// its flat-star and tree equivalents.

package cluster

import (
	"fmt"
	"net"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
)

// Peer is one registered peer of a sink: either a direct leaf (Hello) or
// a child aggregator (AggHello). The zero Peer is invalid; obtain one
// from Handshake.
type Peer struct {
	s    *voteSink
	node int      // leaf node ID, or -1 for aggregator peers
	agg  *aggPeer // registered child aggregator, or nil
	recv *obs.Counter
}

// Handshake validates and registers a peer's opening frame (Hello or
// AggHello). A failed handshake counts a bad frame and returns an error;
// the caller terminates the transport. Handshake does not count the
// frame in the transport stats: the connection handler does that itself,
// the service counts it in its own queue metrics.
func (s *voteSink) Handshake(f wire.Frame) (*Peer, error) {
	switch m := f.(type) {
	case *wire.Hello:
		if int(m.K) != s.k || int(m.Trials) != s.cfg.Trials ||
			int(m.Node) < s.lo || int(m.Node) >= s.hi || !s.registerLeaf(int(m.Node)) {
			s.countBadFrame()
			return nil, fmt.Errorf("cluster: hello rejected: node %d of k=%d trials=%d", m.Node, m.K, m.Trials)
		}
		p := &Peer{s: s, node: int(m.Node)}
		if s.reg != nil {
			p.recv = s.reg.Counter(s.metricName(fmt.Sprintf("peer.%d.recv", p.node)))
		}
		p.recv.Inc() // the Hello itself
		return p, nil
	case *wire.AggHello:
		ap := s.registerAgg(m)
		if ap == nil {
			s.countBadFrame()
			return nil, fmt.Errorf("cluster: agghello rejected: agg %d window [%d, %d)", m.Agg, m.Lo, m.Hi)
		}
		p := &Peer{s: s, node: -1, agg: ap}
		if s.reg != nil {
			p.recv = s.reg.Counter(s.metricName(fmt.Sprintf("aggpeer.%d.recv", ap.id)))
		}
		p.recv.Inc() // the AggHello itself
		return p, nil
	default:
		s.countBadFrame()
		return nil, fmt.Errorf("cluster: handshake frame type %d is not Hello or AggHello", f.Type())
	}
}

// Apply folds one post-handshake frame from the peer into its sink:
// validation, dedup and the owner's incremental decision or completion
// hook. wireBytes is the frame's on-wire size (body plus length prefix)
// for the byte accounting. It returns done=true when the frame was the
// peer's Done marker: the peer sends nothing further and waits for the
// verdict. A returned error means the frame violated the protocol — a
// second handshake, a frame naming another node or aggregator, or an
// unexpected type — and was counted as one bad frame; the caller
// terminates the transport.
func (p *Peer) Apply(f wire.Frame, tc wire.TraceContext, wireBytes int) (bool, error) {
	s := p.s
	s.countFrame(wireBytes)
	p.recv.Inc()

	switch m := f.(type) {
	case *wire.Vote:
		if p.node < 0 || int(m.Node) != p.node {
			s.countBadFrame()
			return false, fmt.Errorf("cluster: vote from node %d on peer %d", m.Node, p.node)
		}
		s.apply(int(m.Trial), p.node, m.Reject, 0, 0, tc)
	case *wire.Sketch:
		if p.node < 0 || int(m.Node) != p.node {
			s.countBadFrame()
			return false, fmt.Errorf("cluster: sketch from node %d on peer %d", m.Node, p.node)
		}
		// Single-collision vote derived server-side: reject iff the node
		// saw any colliding pair.
		s.apply(int(m.Trial), p.node, m.Collisions > 0, uint64(m.Samples), uint64(m.Collisions), tc)
	case *wire.VoteBatch:
		if p.node < 0 {
			s.countBadFrame()
			return false, fmt.Errorf("cluster: vote batch on aggregator peer")
		}
		for i := range m.Votes {
			if int(m.Votes[i].Node) != p.node {
				// A batch smuggling another node's votes is rejected whole.
				s.countBadFrame()
				return false, fmt.Errorf("cluster: batch smuggles node %d on peer %d", m.Votes[i].Node, p.node)
			}
		}
		s.applyBatch(m, p.node, tc)
	case *wire.PartialVerdict:
		if p.agg == nil || m.Agg != p.agg.id {
			s.countBadFrame()
			return false, fmt.Errorf("cluster: partial from agg %d on peer", m.Agg)
		}
		s.applyPartial(m, p.agg, tc)
	case *wire.Done:
		if p.agg != nil {
			if int(m.Node) != int(p.agg.id) {
				s.countBadFrame()
				return false, fmt.Errorf("cluster: done from agg %d on peer %d", m.Node, p.agg.id)
			}
			s.markDoneRange(p.agg)
		} else {
			if int(m.Node) != p.node {
				s.countBadFrame()
				return false, fmt.Errorf("cluster: done from node %d on peer %d", m.Node, p.node)
			}
			s.markDone(p.node)
		}
		return true, nil
	default:
		s.countBadFrame()
		return false, fmt.Errorf("cluster: unexpected frame type %d after handshake", f.Type())
	}
	return false, nil
}

// Fail settles an error that ended the peer's connection outside Apply,
// by the rule every host applies: a frame that failed to read, decode or
// route counts one bad frame, while an orderly end of stream (EOF, a
// closed or reset transport, a deadline) counts nothing. It reports
// whether err was a protocol violation; the caller then terminates the
// transport.
func (p *Peer) Fail(err error) bool { return p.s.fail(err) }

// Register records conn for the verdict broadcast at finalization and
// counts the accepted connection. It reports false when the session
// already finalized — the caller should close conn itself.
func (rf *Referee) Register(conn net.Conn) bool {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.closed {
		return false
	}
	rf.conns = append(rf.conns, conn)
	rf.stats.Connections++
	return true
}

// Decided returns the channel closed when the session's outcome is
// fixed: every node done, or every verdict early-decided under
// Config.EarlyClose.
func (rf *Referee) Decided() <-chan struct{} {
	return rf.trigger
}

// Finalize decides the remaining trials via the quorum policy, closes
// the session against further folds, and returns the report, the
// verdict broadcast frame, and the registered connections to flush it
// to. Callers own closing the connections.
func (rf *Referee) Finalize() (*Report, wire.Verdict, []net.Conn) {
	return rf.finalize()
}

// MarkExpired records that the session hit its deadline (or was evicted
// as stalled) and fires the decision trigger, so a Decided waiter
// proceeds to Finalize with the quorum fallback covering the missing
// votes.
func (rf *Referee) MarkExpired() {
	rf.mu.Lock()
	rf.stats.DeadlineExpired = true
	rf.mu.Unlock()
	rf.fire()
}
