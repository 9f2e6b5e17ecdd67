package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// Referee is the decision service of a cluster session: it accepts node
// connections, validates and deduplicates their votes, applies the
// decision rule incrementally as votes arrive — reusing the rule's
// EarlyDecider so a trial's verdict is fixed at the earliest possible
// vote — and finalizes undecided trials through the quorum policy when
// the session ends. The connection-terminating half (accept loop, frame
// validation, dedup, per-trial fold) is the voteSink shared with the
// Aggregator; the referee layers the rule and quorum machinery on top
// through the sink's onTrial hook. Besides raw leaf connections, the
// sink also terminates aggregator children (AggHello + PartialVerdict
// partial sums), which fold into the same per-trial tallies — both
// decision rules are commutative monoids over (votes, rejects), so the
// merged sums decide exactly as the flat star would.
//
// A session ends on the first of: every node sent Done; every trial's
// verdict is fixed (Config.EarlyClose); or the safety-net deadline
// expired. At that point the referee broadcasts a wire.Verdict summary to
// every connected node and closes the transport.
type Referee struct {
	voteSink
	rule zeroround.Rule
	// early is rule as a zeroround.EarlyDecider, or nil; resolved once.
	early zeroround.EarlyDecider

	// Decision state, guarded by the sink mutex (advance runs under it).
	missing   []int
	decided   []bool
	verdict   []bool
	early_    []bool // trial fixed by EarlyDecider before all votes
	undecided int
}

// NewReferee builds a referee for a k-node network deciding with rule.
func NewReferee(k int, rule zeroround.Rule, cfg Config) *Referee {
	rf := &Referee{
		rule:      rule,
		missing:   make([]int, cfg.Trials),
		decided:   make([]bool, cfg.Trials),
		verdict:   make([]bool, cfg.Trials),
		early_:    make([]bool, cfg.Trials),
		undecided: cfg.Trials,
	}
	rf.voteSink.init(k, 0, k, cfg, "cluster", "referee")
	rf.onTrial = rf.advance
	if ed, ok := rule.(zeroround.EarlyDecider); ok {
		rf.early = ed
	}
	return rf
}

// Serve runs one session on l and returns the referee's report. It always
// closes l. Under QuorumStrict a session with missing votes returns the
// report alongside a non-nil error.
func (rf *Referee) Serve(l net.Listener) (*Report, error) {
	if rf.cfg.Trials <= 0 {
		l.Close()
		return nil, fmt.Errorf("cluster: referee needs Trials > 0, got %d", rf.cfg.Trials)
	}
	deadline := rf.cfg.deadline()
	timer := time.NewTimer(deadline)
	defer timer.Stop()

	sess := rf.cfg.Trace.Start("referee.session", trace.Context{},
		trace.A("k", rf.k), trace.A("trials", rf.cfg.Trials))
	rf.reg.Gauge("cluster.sessions_open").Add(1)
	defer rf.reg.Gauge("cluster.sessions_open").Add(-1)

	var wg sync.WaitGroup
	go rf.acceptLoop(l, deadline, &wg)

	select {
	case <-rf.trigger:
	case <-timer.C:
		rf.mu.Lock()
		rf.stats.DeadlineExpired = true
		rf.mu.Unlock()
	}
	l.Close()

	vspan := rf.cfg.Trace.Start("referee.verdict", sess.Context())
	rep, sum, conns := rf.finalize()
	vspan.Annotate(trace.A("accepts", rep.Accepts), trace.A("missing", rep.MissingVotes),
		trace.A("quorum_trials", rep.QuorumTrials))
	vspan.End()
	sess.End()
	for _, c := range conns {
		// Bounded best-effort verdict delivery: a node that already went
		// away must not stall shutdown (a write blocks once the peer's
		// receive buffer is full).
		c.SetWriteDeadline(time.Now().Add(time.Second)) //unifvet:allow wallclock bounded best-effort verdict broadcast on shutdown
		_ = wire.WriteFrame(c, &sum)
		c.Close()
	}
	wg.Wait()
	rf.m.peersIdle.Set(0) // the broadcast released every idle peer

	if rf.cfg.Policy == QuorumStrict && rep.MissingVotes > 0 {
		return rep, fmt.Errorf("cluster: strict quorum: %d votes missing across %d trials", rep.MissingVotes, rep.QuorumTrials)
	}
	return rep, nil
}

// advance runs the incremental decision for one trial; the sink invokes
// it under its mutex after every fold — a direct vote or a partial-sum
// entry — so EarlyDecider short-circuiting fires from partial counts
// exactly as it does from raw votes.
func (rf *Referee) advance(trial int) {
	if rf.decided[trial] {
		return
	}
	switch {
	case rf.votes[trial] == rf.k:
		rf.settle(trial, rf.rule.Accept(rf.rejects[trial], rf.k), false)
	case rf.early != nil:
		if accept, done := rf.early.Decided(rf.rejects[trial], rf.k-rf.votes[trial]); done {
			rf.settle(trial, accept, true)
		}
	}
}

// settle fixes a trial's verdict; callers hold the sink mutex.
func (rf *Referee) settle(trial int, accept, early bool) {
	rf.decided[trial] = true
	rf.verdict[trial] = accept
	rf.early_[trial] = early
	rf.undecided--
	if rf.undecided == 0 && rf.cfg.EarlyClose {
		rf.stats.EarlyClosed = true
		rf.fire()
	}
}

// finalize decides the remaining trials via the quorum policy and
// assembles the report, the verdict broadcast frame, and the connections
// to flush it to.
func (rf *Referee) finalize() (*Report, wire.Verdict, []net.Conn) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.closed = true

	rep := &Report{Outcome: Outcome{
		K:        rf.k,
		Trials:   rf.cfg.Trials,
		Verdicts: make([]bool, rf.cfg.Trials),
		Rejects:  append([]int(nil), rf.rejects...),
		Votes:    append([]int(nil), rf.votes...),
		Missing:  make([]int, rf.cfg.Trials),
	}}
	for t := 0; t < rf.cfg.Trials; t++ {
		if !rf.decided[t] {
			// Quorum fallback: decide from the votes that arrived; the
			// absent votes count as accepts.
			rf.verdict[t] = rf.rule.Accept(rf.rejects[t], rf.k)
			rf.decided[t] = true
			rf.missing[t] = rf.k - rf.votes[t]
			rep.QuorumTrials++
		}
		if rf.early_[t] {
			rep.EarlyTrials++
		}
		rep.Verdicts[t] = rf.verdict[t]
		rep.Missing[t] = rf.missing[t]
		rep.MissingVotes += rf.missing[t]
		if rf.verdict[t] {
			rep.Accepts++
		}
	}
	rf.stats.IdlePeers = rf.doneCount
	rep.Stats = rf.stats
	rf.reg.Counter("cluster.votes_missing").Add(int64(rep.MissingVotes))

	sum := wire.Verdict{
		Trials:  uint32(rep.Trials),
		Accepts: uint32(rep.Accepts),
		Missing: uint32(rep.MissingVotes),
	}
	conns := rf.conns
	rf.conns = nil
	return rep, sum, conns
}

// isClosedErr reports whether err is an orderly end of stream rather than
// a protocol violation: EOF, a closed/reset transport, or a deadline.
func isClosedErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	s := err.Error()
	for _, sub := range []string{"closed pipe", "use of closed network connection", "connection reset", "broken pipe"} {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
