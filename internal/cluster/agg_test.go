package cluster

import (
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// treeRun adapts RunTreePipe/RunTreeTCP to checkDifferential's runner
// signature at a fixed topology.
func treeRun(tree func(Config, *zeroround.Network, dist.Distribution, *FaultPlan, int, int) (*Report, error), fanout, depth int) func(Config, *zeroround.Network, dist.Distribution, *FaultPlan) (*Report, error) {
	return func(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan) (*Report, error) {
		return tree(cfg, nw, d, plan, fanout, depth)
	}
}

func TestTreePipeMatchesReferenceThreshold(t *testing.T) {
	// The tree pin mirrors the flat-star differential: every (fanout,
	// depth) shard layout must land on RunAt's verdicts trial for trial,
	// because partial sums compose the same (votes, rejects) monoid the
	// flat referee folds vote by vote.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 9)
	for _, tc := range []struct{ fanout, depth int }{
		{2, 1}, {8, 1}, {4, 2}, {2, 3},
	} {
		checkDifferential(t, nw, d, Config{Trials: 10, BaseSeed: 77},
			treeRun(RunTreePipe, tc.fanout, tc.depth))
	}
}

func TestTreePipeMatchesReferenceAND(t *testing.T) {
	nw := andNetwork(t, 1<<10, 16)
	d := dist.NewUniform(1 << 10)
	checkDifferential(t, nw, d, Config{Trials: 6, BaseSeed: 41}, treeRun(RunTreePipe, 4, 2))
}

func TestTreeTCPMatchesReference(t *testing.T) {
	nw := thresholdNetwork(t, 64, 40)
	d := dist.NewTwoBump(64, 1.0, 5)
	checkDifferential(t, nw, d, Config{Trials: 8, BaseSeed: 5}, treeRun(RunTreeTCP, 4, 2))
}

func TestTreeSketchMatchesReference(t *testing.T) {
	// Sketch-mode partials carry the extra samples/collisions columns;
	// the root's derived verdicts must still match the reference.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 2)
	checkDifferential(t, nw, d,
		Config{Trials: 8, BaseSeed: 9, Sketch: true, DomainN: 64},
		treeRun(RunTreePipe, 8, 2))
}

func TestTreeMatchesFlatStarExactly(t *testing.T) {
	// Beyond matching the reference, the tree must reproduce the flat
	// star's whole Outcome — verdicts, rejects, votes, missing, quorum
	// accounting — while the root hears about every single vote only
	// through partial frames.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 10, BaseSeed: 1234}
	flat, err := RunPipe(cfg, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := RunTreePipe(cfg, nw, d, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree.Outcome, flat.Outcome) {
		t.Errorf("tree outcome diverged from flat star:\n tree %+v\n flat %+v", tree.Outcome, flat.Outcome)
	}
	if tree.Stats.PartialFrames == 0 {
		t.Error("tree root folded no partial frames")
	}
	if want := nw.K() * cfg.Trials; tree.Stats.PartialVotes != want {
		t.Errorf("root folded %d votes via partials, want all %d", tree.Stats.PartialVotes, want)
	}
	if flat.Stats.PartialFrames != 0 || flat.Stats.PartialVotes != 0 {
		t.Errorf("flat star reported partial traffic (%d frames, %d votes)",
			flat.Stats.PartialFrames, flat.Stats.PartialVotes)
	}
}

func TestTreeFaultDropMatchesFlatStar(t *testing.T) {
	// Fault streams are keyed by (node, attempt) alone — independent of
	// the dial target — so a lossy tree run must lose exactly the votes
	// the lossy flat star loses, and the quorum fallback must land on the
	// identical Outcome: verdicts, per-trial votes and missing counts.
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 10, BaseSeed: 2}
	plan := &FaultPlan{Seed: 7, Drop: 0.10}
	flat, err := RunPipe(cfg, nw, d, plan)
	if err != nil {
		t.Fatal(err)
	}
	if flat.MissingVotes == 0 {
		t.Fatal("drop plan lost no votes; fault injection inert")
	}
	for _, depth := range []int{1, 2} {
		tree, err := RunTreePipe(cfg, nw, d, plan, 4, depth)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tree.Outcome, flat.Outcome) {
			t.Errorf("depth %d: tree outcome diverged from flat star:\n tree %+v\n flat %+v",
				depth, tree.Outcome, flat.Outcome)
		}
	}
}

func TestTreeMixedBatchedLeavesMatchReference(t *testing.T) {
	// One shard's leaves may batch while another's submit frame-by-frame;
	// the fold is transport-agnostic, so the verdicts must not move.
	nw := thresholdNetwork(t, 64, 8)
	d := dist.NewTwoBump(64, 1.0, 3)
	k := nw.K()
	reg := obs.NewRegistry()
	cfg := Config{Trials: 6, BaseSeed: 11, Obs: reg}

	rootL := NewPipeListener()
	rf := NewReferee(k, nw.Rule(), cfg)
	mid := k / 2
	for i, win := range [][2]int{{0, mid}, {mid, k}} {
		aggL := NewPipeListener()
		agg := &Aggregator{ID: uint32(i), Lo: win[0], Hi: win[1], K: k, Tier: 1,
			Dial: rootL.Dial, Config: cfg}
		go agg.Serve(aggL)
		for n := win[0]; n < win[1]; n++ {
			leafCfg := cfg
			if n%2 == 0 {
				leafCfg.Batch = 3 // batched even leaves, unbatched odd ones
			}
			nc := &NodeClient{ID: n, K: k, Tester: nw.Node(n), Config: leafCfg, Dial: aggL.Dial}
			go nc.Run(d)
		}
	}
	rep, err := rf.Serve(rootL)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		wantAccept, wantRejects := nw.RunAt(d, cfg.BaseSeed, uint64(tr), nil, nil)
		if rep.Verdicts[tr] != wantAccept || rep.Rejects[tr] != wantRejects || rep.Votes[tr] != k {
			t.Errorf("trial %d: (%v, %d rejects, %d votes), reference (%v, %d, %d)", tr,
				rep.Verdicts[tr], rep.Rejects[tr], rep.Votes[tr], wantAccept, wantRejects, k)
		}
	}
	// Batch frames terminate at the aggregator tier, not the root; the
	// node-side per-peer sent counters prove the even leaves batched.
	if reg.Counter("cluster.peer.0.sent").Value() == 0 {
		t.Error("no leaf batched; the mixed-transport pin tested nothing")
	}
	if reg.Counter("agg.votes").Value() != int64(k*cfg.Trials) {
		t.Errorf("aggregator tier folded %d votes, want %d", reg.Counter("agg.votes").Value(), k*cfg.Trials)
	}
}

func TestTreeEarlyCloseKeepsVerdicts(t *testing.T) {
	// Far-from-uniform input under AND: partial sums alone must feed the
	// root's early decider, and the early-closed tree must relay the
	// verdict down without erroring any tier.
	nw := andNetwork(t, 1<<10, 16)
	d := dist.NewTwoBump(1<<10, 1.0, 8)
	full, err := RunPipe(Config{Trials: 8, BaseSeed: 21}, nw, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	early, err := RunTreePipe(Config{Trials: 8, BaseSeed: 21, EarlyClose: true}, nw, d, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !early.Stats.EarlyClosed {
		t.Fatal("far input under AND did not early-close the tree session")
	}
	for tr := range full.Verdicts {
		if full.Verdicts[tr] != early.Verdicts[tr] {
			t.Fatalf("trial %d: early tree verdict %v, full flat run %v", tr, early.Verdicts[tr], full.Verdicts[tr])
		}
	}
}

func TestTreeDeterministicAcrossRuns(t *testing.T) {
	nw := thresholdNetwork(t, 64, 60)
	d := dist.NewTwoBump(64, 1.0, 4)
	cfg := Config{Trials: 8, BaseSeed: 99}
	first, err := RunTreePipe(cfg, nw, d, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := RunTreePipe(cfg, nw, d, nil, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		for tr := range got.Verdicts {
			if got.Verdicts[tr] != first.Verdicts[tr] || got.Rejects[tr] != first.Rejects[tr] {
				t.Fatalf("repeat %d trial %d: (%v, %d) vs first (%v, %d)", rep, tr,
					got.Verdicts[tr], got.Rejects[tr], first.Verdicts[tr], first.Rejects[tr])
			}
		}
		// The flush schedule may chunk differently across runs, but the
		// folded totals are fixed by the configuration.
		if got.Stats.PartialVotes != first.Stats.PartialVotes {
			t.Fatalf("repeat %d folded %d partial votes, first %d", rep,
				got.Stats.PartialVotes, first.Stats.PartialVotes)
		}
	}
}

// fakePeerSession runs serve on a pipe listener and speaks the peer
// protocol to it by hand: hello (a Hello or an AggHello), then frames,
// on one connection; then each closer stream on a fresh connection of
// its own. A host terminates a connection on a protocol violation, which
// closes the pipe under the writer: the rest of that stream is dropped,
// as a real peer's would be. Pipe writes return once buffered, so before
// dialing the closers it waits for the host to drop the first
// connection: the closers complete the window, and the session could
// otherwise finish before the host read the violation. It returns
// serve's result.
func fakePeerSession(t *testing.T, serve func(net.Listener) (*Report, error), hello wire.Frame, frames []wire.Frame, closers ...[]wire.Frame) (*Report, error) {
	t.Helper()
	l := NewPipeListener()
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = serve(l)
	}()
	for i, stream := range append([][]wire.Frame{append([]wire.Frame{hello}, frames...)}, closers...) {
		conn, derr := l.Dial()
		if derr != nil {
			t.Fatal(derr)
		}
		defer conn.Close()
		// Drain the verdict broadcast so the host's bounded best-effort
		// write never has to wait out its deadline. The drain ends when
		// the host closes the connection.
		dropped := make(chan struct{})
		go func() {
			defer close(dropped)
			io.Copy(io.Discard, conn)
		}()
		for _, f := range stream {
			if wire.WriteFrame(conn, f) != nil {
				break
			}
		}
		if i == 0 && len(closers) > 0 {
			<-dropped
		}
	}
	<-done
	return rep, err
}

func TestDuplicatedPartialsFoldOnce(t *testing.T) {
	// A retrying child replays its whole flushed log; the per-(trial,
	// child) dedup must fold every entry exactly once.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	cfg := Config{Trials: 4, BaseSeed: 6, Deadline: 5 * time.Second}
	rf := NewReferee(k, nw.Rule(), cfg)
	entries := make([]wire.PartialEntry, cfg.Trials)
	for tr := range entries {
		entries[tr] = wire.PartialEntry{Trial: uint32(tr), Votes: uint32(k), Rejects: 1}
	}
	pv := &wire.PartialVerdict{Agg: 3, Entries: entries}
	rep, err := fakePeerSession(t, rf.Serve,
		&wire.AggHello{Agg: 3, K: uint32(k), Trials: uint32(cfg.Trials), Lo: 0, Hi: uint32(k)},
		[]wire.Frame{pv, pv, &wire.Done{Node: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.DuplicatePartials != cfg.Trials {
		t.Errorf("%d duplicate partial entries counted, want %d", rep.Stats.DuplicatePartials, cfg.Trials)
	}
	for tr := 0; tr < cfg.Trials; tr++ {
		if rep.Votes[tr] != k || rep.Rejects[tr] != 1 {
			t.Errorf("trial %d: %d votes, %d rejects after replay; want %d, 1", tr, rep.Votes[tr], rep.Rejects[tr], k)
		}
	}
	if rep.Stats.DeadlineExpired {
		t.Error("session hit the deadline despite a complete replayed window")
	}
}

func TestPartialExceedingWindowRejected(t *testing.T) {
	// An entry claiming more votes than its sender's window holds would
	// break votes[t] ≤ k; it must count as a bad frame and fold nothing.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	cfg := Config{Trials: 2, BaseSeed: 6, Deadline: time.Second}
	rf := NewReferee(k, nw.Rule(), cfg)
	oversized := &wire.PartialVerdict{Agg: 1, Entries: []wire.PartialEntry{
		{Trial: 0, Votes: 3, Rejects: 0}, // window [0, 2) holds 2 votes
	}}
	rep, err := fakePeerSession(t, rf.Serve,
		&wire.AggHello{Agg: 1, K: uint32(k), Trials: uint32(cfg.Trials), Lo: 0, Hi: 2},
		[]wire.Frame{oversized, &wire.Done{Node: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.BadFrames == 0 {
		t.Error("window-exceeding partial entry not counted as a bad frame")
	}
	if rep.Votes[0] != 0 {
		t.Errorf("%d votes folded from an invalid entry", rep.Votes[0])
	}
}

func TestQuorumPolicyOnSilentSubtree(t *testing.T) {
	// A subtree that disconnects mid-trial leaves its unreported votes
	// missing. QuorumObserved falls back (missing vote = accept);
	// QuorumStrict must fail the run and account for the loss.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	partial := func() []wire.Frame {
		// The child covers [0, k) but only k-1 leaves reported each trial.
		entries := make([]wire.PartialEntry, 2)
		for tr := range entries {
			entries[tr] = wire.PartialEntry{Trial: uint32(tr), Votes: uint32(k - 1), Rejects: 0}
		}
		return []wire.Frame{
			&wire.PartialVerdict{Agg: 1, Entries: entries},
			&wire.Done{Node: 1},
		}
	}

	cfg := Config{Trials: 2, BaseSeed: 6, Deadline: 5 * time.Second}
	rep, err := fakePeerSession(t, NewReferee(k, nw.Rule(), cfg).Serve,
		&wire.AggHello{Agg: 1, K: uint32(k), Trials: 2, Lo: 0, Hi: uint32(k)}, partial())
	if err != nil {
		t.Fatalf("observed quorum rejected a lossy subtree: %v", err)
	}
	for tr := 0; tr < 2; tr++ {
		if rep.Votes[tr] != k-1 || rep.Missing[tr] != 1 {
			t.Errorf("trial %d: %d votes, %d missing; want %d, 1", tr, rep.Votes[tr], rep.Missing[tr], k-1)
		}
	}
	if rep.QuorumTrials != 2 {
		t.Errorf("%d quorum trials, want 2", rep.QuorumTrials)
	}

	cfg.Policy = QuorumStrict
	rep, err = fakePeerSession(t, NewReferee(k, nw.Rule(), cfg).Serve,
		&wire.AggHello{Agg: 1, K: uint32(k), Trials: 2, Lo: 0, Hi: uint32(k)}, partial())
	if err == nil {
		t.Fatal("strict quorum accepted a lossy subtree")
	}
	if !strings.Contains(err.Error(), "strict quorum") {
		t.Fatalf("unexpected error: %v", err)
	}
	if rep == nil || rep.MissingVotes != 2 {
		t.Fatal("strict failure did not account for the subtree's missing votes")
	}
}

func TestAggregatorDrainsPartialOnDeadline(t *testing.T) {
	// Drain-on-disconnect: when a leaf never reports, the aggregator's
	// deadline fires and it must still flush the votes it did fold, so
	// the root's quorum fallback sees exactly what arrived.
	nw := thresholdNetwork(t, 64, 10)
	k := nw.K()
	rootCfg := Config{Trials: 3, BaseSeed: 4, Deadline: 10 * time.Second}
	aggCfg := rootCfg
	aggCfg.Deadline = 300 * time.Millisecond

	rootL := NewPipeListener()
	rf := NewReferee(k, nw.Rule(), rootCfg)
	aggL := NewPipeListener()
	agg := &Aggregator{ID: 0, Lo: 0, Hi: 2, K: k, Tier: 1, Dial: rootL.Dial, Config: aggCfg}
	aggDone := make(chan error, 1)
	go func() { aggDone <- agg.Serve(aggL) }()

	d := dist.NewTwoBump(64, 1.0, 3)
	// Leaf 0 reports through the aggregator; leaf 1 of the window never
	// shows up. The remaining leaves dial the root directly.
	go (&NodeClient{ID: 0, K: k, Tester: nw.Node(0), Config: aggCfg, Dial: aggL.Dial}).Run(d)
	for n := 2; n < k; n++ {
		go (&NodeClient{ID: n, K: k, Tester: nw.Node(n), Config: rootCfg, Dial: rootL.Dial}).Run(d)
	}

	rep, err := rf.Serve(rootL)
	if err != nil {
		t.Fatal(err)
	}
	if aerr := <-aggDone; aerr != nil {
		t.Fatalf("aggregator: %v", aerr)
	}
	for tr := 0; tr < rootCfg.Trials; tr++ {
		if rep.Votes[tr] != k-1 {
			t.Errorf("trial %d: %d votes arrived, want %d with only node 1 silent", tr, rep.Votes[tr], k-1)
		}
	}
	// Every trial misses exactly node 1's vote: it either settles early
	// (the threshold decider decides with one vote outstanding) or falls
	// back to quorum with one recorded missing vote — never both.
	if rep.EarlyTrials+rep.QuorumTrials != rootCfg.Trials || rep.MissingVotes != rep.QuorumTrials {
		t.Errorf("accounting: %d early + %d quorum trials of %d, %d missing votes",
			rep.EarlyTrials, rep.QuorumTrials, rootCfg.Trials, rep.MissingVotes)
	}
	if rep.Stats.PartialVotes != rootCfg.Trials {
		t.Errorf("root folded %d partial votes, want %d (node 0's drained sums)",
			rep.Stats.PartialVotes, rootCfg.Trials)
	}
}

// TestHostilePeerTerminated pins the one violation policy every host
// shares through Handshake/Peer.Apply: a frame that breaks the protocol
// counts exactly one bad frame and terminates its connection, so nothing
// the peer sends afterwards folds — on the root referee and on an
// aggregator alike. Each stream tries to end with its own Done; fresh
// well-behaved streams then complete the window.
func TestHostilePeerTerminated(t *testing.T) {
	const k, trials = 2, 2
	cfg := Config{Trials: trials, BaseSeed: 1, Deadline: 10 * time.Second}
	leaf := &wire.Hello{Node: 0, K: k, Trials: trials}
	agg := &wire.AggHello{Agg: 7, K: k, Trials: trials, Lo: 0, Hi: k}
	vote := func(trial, node uint32) *wire.Vote { return &wire.Vote{Trial: trial, Node: node} }
	partial := func(id, trial uint32) *wire.PartialVerdict {
		return &wire.PartialVerdict{Agg: id, Entries: []wire.PartialEntry{{Trial: trial, Votes: k}}}
	}
	leafClosers := [][]wire.Frame{
		{&wire.Hello{Node: 0, K: k, Trials: trials}, &wire.Done{Node: 0}},
		{&wire.Hello{Node: 1, K: k, Trials: trials}, &wire.Done{Node: 1}},
	}
	aggClosers := [][]wire.Frame{{agg, &wire.Done{Node: 7}}}
	cases := []struct {
		name      string
		hello     wire.Frame
		frames    []wire.Frame // legitimate frames, the violation, then a legitimate frame
		closers   [][]wire.Frame
		wantVotes int // folded before the violation
	}{
		{"smuggled vote", leaf,
			[]wire.Frame{vote(0, 0), vote(0, 1), vote(1, 0), &wire.Done{Node: 0}}, leafClosers, 1},
		{"second hello switches node", leaf,
			[]wire.Frame{vote(0, 0), &wire.Hello{Node: 1, K: k, Trials: trials}, vote(1, 1), &wire.Done{Node: 1}}, leafClosers, 1},
		{"batch smuggles another node", leaf,
			[]wire.Frame{vote(0, 0), &wire.VoteBatch{Votes: []wire.BatchVote{{Trial: 1, Node: 0}, {Trial: 1, Node: 1}}},
				vote(1, 0), &wire.Done{Node: 0}}, leafClosers, 1},
		{"partial from another aggregator", agg,
			[]wire.Frame{partial(7, 0), partial(8, 1), partial(7, 1), &wire.Done{Node: 7}}, aggClosers, k},
		{"done for another node", leaf,
			[]wire.Frame{vote(0, 0), &wire.Done{Node: 1}, vote(1, 0), &wire.Done{Node: 0}}, leafClosers, 1},
	}
	rule := zeroround.ANDRule{}
	hosts := []struct {
		name  string
		serve func(l net.Listener) (*Report, *voteSink, error)
	}{
		{"referee", func(l net.Listener) (*Report, *voteSink, error) {
			rf := NewReferee(k, rule, cfg)
			rep, err := rf.Serve(l)
			return rep, &rf.voteSink, err
		}},
		{"aggregator", func(l net.Listener) (*Report, *voteSink, error) {
			rootL := NewPipeListener()
			rf := NewReferee(k, rule, cfg)
			var rep *Report
			var rerr error
			rootDone := make(chan struct{})
			go func() {
				defer close(rootDone)
				rep, rerr = rf.Serve(rootL)
			}()
			a := &Aggregator{ID: 0, Lo: 0, Hi: k, K: k, Tier: 1, Dial: rootL.Dial, Config: cfg}
			err := a.Serve(l)
			<-rootDone
			if err == nil {
				err = rerr
			}
			return rep, &a.voteSink, err
		}},
	}
	for _, tc := range cases {
		for _, h := range hosts {
			t.Run(tc.name+"/"+h.name, func(t *testing.T) {
				var sink *voteSink
				_, err := fakePeerSession(t, func(l net.Listener) (*Report, error) {
					rep, s, err := h.serve(l)
					sink = s
					return rep, err
				}, tc.hello, tc.frames, tc.closers...)
				if err != nil {
					t.Fatal(err)
				}
				sink.mu.Lock()
				defer sink.mu.Unlock()
				folded := 0
				for _, v := range sink.votes {
					folded += v
				}
				if sink.stats.BadFrames != 1 || folded != tc.wantVotes {
					t.Fatalf("%d bad frames, %d votes folded; want 1 bad frame and only the %d votes before the violation",
						sink.stats.BadFrames, folded, tc.wantVotes)
				}
				if sink.stats.DeadlineExpired {
					t.Fatal("session ran into its deadline instead of completing")
				}
			})
		}
	}
}
