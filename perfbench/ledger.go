package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// ledger is the stage-replay ledger: it re-runs each vote stage of a
// session single-threaded on the session's own inputs, through the same
// exported calls the node clients and the referee make, and accumulates
// time and heap allocations per stage. It runs outside any timed window.
type ledger struct {
	votes   int
	ns      [numStages]time.Duration
	allocs  [numStages]uint64
	decide  []time.Duration
	bytes   int
	raw     int
	partial time.Duration
	pvotes  int
}

// Stages of one vote, in order.
const (
	stSample = iota
	stTest
	stEncode
	stDecode
	stFold
	numStages
)

var stageNames = [numStages]string{"sample", "test", "encode", "decode", "fold"}

// allocSample is reused so reading the allocation count allocates
// nothing itself; the ledger reads it from one goroutine only.
var allocSample = []metrics.Sample{{Name: rtAllocObjects}}

// heapAllocs returns the cumulative count of heap allocations.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// timed runs fn and charges its time and allocations to stage st.
func (l *ledger) timed(st int, fn func()) {
	a0 := heapAllocs()
	t0 := time.Now()
	fn()
	l.ns[st] += time.Since(t0)
	l.allocs[st] += heapAllocs() - a0
}

// replay runs one session's stages: every node samples and tests all its
// trials, encodes its frames, and a fresh referee decodes and folds them
// and decides. With fanout ≥ 2 it also folds the session's votes as the
// depth-1 tree's aggregator partial sums into a second fresh referee.
func (l *ledger) replay(nw *zeroround.Network, d dist.Distribution, cfg cluster.Config, fanout int) error {
	k, trials := nw.K(), cfg.Trials
	g := rng.New(0)
	var col dist.CollisionScratch
	var enc wire.BatchEncoder
	streams := make([][]byte, k)
	rejects := make([][]bool, k)
	var blocks, coll []int
	for i := 0; i < k; i++ {
		nd := nw.Node(i)
		s := nd.SampleSize()
		if cap(blocks) < trials*s {
			blocks = make([]int, trials*s)
		}
		blocks = blocks[:trials*s]
		l.timed(stSample, func() {
			for t := 0; t < trials; t++ {
				zeroround.VoteStream(g, cfg.BaseSeed, uint64(t), i, k)
				dist.SampleInto(d, blocks[t*s:(t+1)*s], g)
			}
		})
		rejects[i] = make([]bool, trials)
		coll = append(coll[:0], make([]int, trials)...)
		st, _ := nd.(tester.ScratchTester)
		l.timed(stTest, func() {
			for t := 0; t < trials; t++ {
				block := blocks[t*s : (t+1)*s]
				switch {
				case cfg.Sketch:
					coll[t] = col.CountCollisions(cfg.DomainN, block)
					rejects[i][t] = coll[t] > 0
				case st != nil:
					rejects[i][t] = !st.TestScratch(block, &col)
				default:
					rejects[i][t] = !nd.Test(block)
				}
			}
		})
		var err error
		l.timed(stEncode, func() {
			streams[i], err = encodeNode(&enc, nil, cfg, i, k, s, rejects[i], coll, true)
		})
		if err != nil {
			return err
		}
		raw, err := encodeNode(&enc, nil, cfg, i, k, s, rejects[i], coll, false)
		if err != nil {
			return err
		}
		l.bytes += len(streams[i])
		l.raw += len(raw)
	}
	l.votes += k * trials

	// Decode alone, then decode and fold; the fold is the difference.
	var sc wire.DecodeScratch
	var derr error
	decodeOnly := func() {
		for i := 0; i < k && derr == nil; i++ {
			r := wire.NewReader(bytes.NewReader(streams[i]))
			for {
				body, err := r.ReadBody()
				if err != nil {
					if !errors.Is(err, io.EOF) {
						derr = err
					}
					break
				}
				if _, _, _, err := wire.DecodeBodySession(body, &sc); err != nil {
					derr = err
					break
				}
			}
		}
	}
	rf := cluster.NewReferee(k, nw.Rule(), cfg)
	fold := func() {
		for i := 0; i < k && derr == nil; i++ {
			r := wire.NewReader(bytes.NewReader(streams[i]))
			var peer *cluster.Peer
			for {
				body, err := r.ReadBody()
				if err != nil {
					if !errors.Is(err, io.EOF) {
						derr = err
					}
					break
				}
				f, tc, _, err := wire.DecodeBodySession(body, &sc)
				if err == nil && peer == nil {
					peer, err = rf.Handshake(f)
				} else if err == nil {
					_, err = peer.Apply(f, tc, len(body)+4)
				}
				if err != nil {
					derr = err
					break
				}
			}
		}
	}
	var dec ledger
	dec.timed(stDecode, decodeOnly)
	var both ledger
	both.timed(stFold, fold)
	if derr != nil {
		return fmt.Errorf("ledger replay: %w", derr)
	}
	l.ns[stDecode] += dec.ns[stDecode]
	l.allocs[stDecode] += dec.allocs[stDecode]
	l.ns[stFold] += max(both.ns[stFold]-dec.ns[stDecode], 0)
	if both.allocs[stFold] > dec.allocs[stDecode] {
		l.allocs[stFold] += both.allocs[stFold] - dec.allocs[stDecode]
	}
	t0 := time.Now()
	rf.Finalize()
	l.decide = append(l.decide, time.Since(t0))

	if fanout >= 2 {
		return l.replayPartial(nw, cfg, fanout, rejects)
	}
	return nil
}

// encodeNode appends node i's frames — Hello, its votes (VoteBatch frames
// of cfg.Batch votes, or one Vote/Sketch frame each), Done — as its node
// client sends them on clean links.
func encodeNode(enc *wire.BatchEncoder, dst []byte, cfg cluster.Config, i, k, s int, rejects []bool, coll []int, compress bool) ([]byte, error) {
	sess, tc := cfg.Session, wire.TraceContext{}
	dst = wire.AppendSession(dst, &wire.Hello{Node: uint32(i), K: uint32(k), Trials: uint32(cfg.Trials)}, sess, tc)
	vote := func(t int) wire.BatchVote {
		if cfg.Sketch {
			return wire.BatchVote{Trial: uint32(t), Node: uint32(i), Samples: uint32(s), Collisions: uint32(coll[t])}
		}
		return wire.BatchVote{Trial: uint32(t), Node: uint32(i), Reject: rejects[t]}
	}
	if batch := min(cfg.Batch, wire.MaxBatchVotes); batch >= 2 {
		votes := make([]wire.BatchVote, 0, batch)
		for t := 0; t < len(rejects); t++ {
			votes = append(votes, vote(t))
			if len(votes) == batch || t == len(rejects)-1 {
				var err error
				dst, err = enc.AppendSession(dst, &wire.VoteBatch{Sketch: cfg.Sketch, Votes: votes}, sess, tc, compress && cfg.Compress)
				if err != nil {
					return nil, err
				}
				votes = votes[:0]
			}
		}
	} else {
		for t := range rejects {
			var f wire.Frame = &wire.Vote{Trial: uint32(t), Node: uint32(i), Reject: rejects[t]}
			if cfg.Sketch {
				f = &wire.Sketch{Trial: uint32(t), Node: uint32(i), Samples: uint32(s), Collisions: uint32(coll[t])}
			}
			dst = wire.AppendSession(dst, f, sess, tc)
		}
	}
	return wire.AppendSession(dst, &wire.Done{Node: uint32(i)}, sess, tc), nil
}

// replayPartial folds a session's votes as a depth-1 tree's aggregators
// would send them — one AggHello, one PartialVerdict of per-trial sums
// and one Done per window of the node-ID space — into a fresh referee.
func (l *ledger) replayPartial(nw *zeroround.Network, cfg cluster.Config, fanout int, rejects [][]bool) error {
	k, trials := nw.K(), cfg.Trials
	rf := cluster.NewReferee(k, nw.Rule(), cfg)
	chunks := min(fanout, k)
	frames := make([][3]wire.Frame, chunks)
	for c := range frames {
		lo, hi := c*k/chunks, (c+1)*k/chunks
		entries := make([]wire.PartialEntry, trials)
		for t := range entries {
			entries[t] = wire.PartialEntry{Trial: uint32(t), Votes: uint32(hi - lo)}
			for n := lo; n < hi; n++ {
				if rejects[n][t] {
					entries[t].Rejects++
				}
			}
		}
		id := uint32(c)
		frames[c] = [3]wire.Frame{
			&wire.AggHello{Agg: id, K: uint32(k), Trials: uint32(trials), Lo: uint32(lo), Hi: uint32(hi)},
			&wire.PartialVerdict{Agg: id, Entries: entries},
			&wire.Done{Node: id},
		}
	}
	var err error
	t0 := time.Now()
	for _, fr := range frames {
		var peer *cluster.Peer
		if peer, err = rf.Handshake(fr[0]); err != nil {
			break
		}
		if _, err = peer.Apply(fr[1], wire.TraceContext{}, 0); err != nil {
			break
		}
		if _, err = peer.Apply(fr[2], wire.TraceContext{}, 0); err != nil {
			break
		}
	}
	l.partial += time.Since(t0)
	l.pvotes += k * trials
	if err != nil {
		return fmt.Errorf("ledger partial replay: %w", err)
	}
	return nil
}

// perVote returns a stage's ns and allocations per vote.
func (l *ledger) perVote(st int) (ns, allocs float64) {
	return float64(l.ns[st]) / float64(l.votes), float64(l.allocs[st]) / float64(l.votes)
}

// report records the ledger's per-layer metrics and prints it beside the
// untraced end-to-end cpu_ns_per_vote. treeShare is the fraction of the
// workload's votes that also pass through an aggregator's partial sum.
func (l *ledger) report(rep *report, cpuNsPerVote, treeShare float64, votesPerSession float64) {
	names := [numStages][2]string{
		{"dist.sample_ns_per_vote", "dist.sample_allocs_per_vote"},
		{"tester.test_ns_per_vote", "tester.test_allocs_per_vote"},
		{"wire.encode_ns_per_vote", "wire.encode_allocs_per_vote"},
		{"wire.decode_ns_per_vote", "wire.decode_allocs_per_vote"},
		{"cluster.fold_ns_per_vote", "cluster.fold_allocs_per_vote"},
	}
	rep.notes = append(rep.notes, fmt.Sprintf("ledger %-10s %12s %12s", "stage", "ns/vote", "allocs/vote"))
	sum := 0.0
	for st := 0; st < numStages; st++ {
		ns, allocs := l.perVote(st)
		sum += ns
		rep.set(names[st][0], ns, "ns", l.votes)
		rep.set(names[st][1], allocs, "allocs", l.votes)
		rep.notes = append(rep.notes, fmt.Sprintf("ledger %-10s %12.2f %12.4f", stageNames[st], ns, allocs))
	}
	if l.pvotes > 0 {
		pns := float64(l.partial) / float64(l.pvotes)
		rep.set("cluster.partial_fold_ns_per_vote", pns, "ns", l.pvotes)
		rep.notes = append(rep.notes, fmt.Sprintf("ledger %-10s %12.2f %12s  (x %.2f of votes)", "partial", pns, "", treeShare))
		sum += treeShare * pns
	}
	decide := float64(medianDuration(l.decide)) / 1e3
	rep.set("cluster.decide_us", decide, "us", len(l.decide))
	decidePerVote := decide * 1e3 / votesPerSession
	rep.notes = append(rep.notes, fmt.Sprintf("ledger %-10s %12.2f %12s  (%.1f us per session)", "decide", decidePerVote, "", decide))
	sum += decidePerVote
	rep.set("wire.bytes_per_vote", float64(l.bytes)/float64(l.votes), "B", l.votes)
	if l.raw > 0 {
		rep.set("wire.compress_saved_frac", float64(l.raw-l.bytes)/float64(l.raw), "1", l.votes)
	}
	rep.set("ledger.stage_sum_ns_per_vote", sum, "ns", l.votes)
	rep.set("cluster.residual_ns_per_vote", cpuNsPerVote-sum, "ns", l.votes)
	rep.notes = append(rep.notes,
		fmt.Sprintf("ledger %-10s %12.2f", "stage_sum", sum),
		fmt.Sprintf("ledger %-10s %12.2f", "residual", cpuNsPerVote-sum),
		fmt.Sprintf("ledger cpu_ns_per_vote (untraced) %.2f = stage_sum %.2f + residual %.2f", cpuNsPerVote, sum, cpuNsPerVote-sum))
}
