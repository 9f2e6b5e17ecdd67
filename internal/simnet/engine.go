package simnet

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

// This file is the flat round engine behind Run: a single coordinator
// drives lock-step rounds over CSR-flattened topology tables, a bounded
// worker pool executes node programs in chunks, and all routing, validation
// and tracing happen serially in node-index order so the observable
// behaviour — Stats, tracer event sequence, error, and every node's final
// state — is byte-identical to the legacy goroutine-per-node engine
// (RunChannel) at any worker count.
//
// Determinism argument. Three things could make a parallel round engine
// schedule-dependent, and each is pinned:
//
//   - randomness: node v's private generator is the v-th Split of the root
//     generator, assigned during Init before any worker starts, exactly as
//     the legacy engine does; workers never draw from a shared stream;
//   - tracer/stats order: workers only write node v's (out, done) into the
//     indexed slot results[v]; the coordinator then walks the active set in
//     ascending node order to validate, route, trace and account, so the
//     event sequence is a pure function of the round's results;
//   - memory: each delivered payload is copied into the round's arena
//     (copy-on-deliver), so a sender reusing or mutating its outbox buffer
//     after Round returns cannot corrupt a neighbor's inbox.
//
// Steady-state allocation. The CSR port tables (adjacency, reverse ports)
// are graph.Ports, built once per graph and kept on the graph itself, so
// they die with it; finished engines are pooled package-wide and resized
// on acquire. Inboxes are compact delivery slots sized by total degree over
// double-buffered payload arenas, so routing appends never allocate once
// the payload arenas have grown to the peak round volume; a run allocates
// only its nodes' contexts (one slab) and generators. The duplicate-port
// check is a degree-bounded bitset cleared by re-walking the node's outbox,
// and the active set is compacted in place so late rounds only touch live
// nodes.

// nodeResult is one node's round output, written into an indexed slot by
// whichever worker executed the node.
type nodeResult struct {
	out  []PortMessage
	done bool
}

// delivery is a routed message: the receiving port and the payload's
// extent in the payload arena.
type delivery struct {
	port, off, n int32
}

// engine is the per-Run state of the flat round engine.
type engine struct {
	tp    *graph.Ports
	nodes []Node
	cfg   Config

	// Inboxes. Routing records v's i-th delivery in the compact slot
	// box[start[v]+i] (boxCnt[v] slots in all), its payload copied into
	// payNext; routing runs only after every node of the round returned,
	// so one set of slots suffices. Payloads stay double-buffered, because
	// an outbox may forward bytes from payCur.
	box             []delivery
	boxCnt          []int32
	payCur, payNext []byte
	// inboxes[w] is execution worker w's MaxDegree-entry scratch, into which
	// runNode expands a node's slots just before its Round.
	inboxes [][]PortMessage

	results    []nodeResult
	active     []bool
	activeList []int32
	dupBits    []uint64 // degree-bounded duplicate-port bitset

	workers int
}

// run executes the simulation; see Run for the contract.
func (e *engine) run() (Stats, error) {
	cfg := e.cfg
	k := len(e.nodes)
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10*k + 1000
	}

	var stats Stats
	for stats.Rounds < maxRounds && len(e.activeList) > 0 {
		stats.Rounds++
		if cfg.Tracer != nil {
			cfg.Tracer.OnRoundStart(stats.Rounds, len(e.activeList))
		}
		e.execRound()
		// Reset the inboxes, then route serially in node order.
		clear(e.boxCnt)
		e.payNext = e.payNext[:0]
		newActive := e.activeList[:0]
		for _, v32 := range e.activeList {
			v := int(v32)
			res := &e.results[v]
			if res.done {
				e.active[v] = false
				if cfg.Tracer != nil {
					cfg.Tracer.OnHalt(stats.Rounds, v)
				}
			} else {
				newActive = append(newActive, v32)
			}
			if err := e.route(v, res.out, &stats); err != nil {
				return stats, err
			}
			res.out = nil
		}
		e.activeList = newActive
		e.payCur, e.payNext = e.payNext, e.payCur
	}
	if remaining := len(e.activeList); remaining > 0 {
		return stats, fmt.Errorf("%w: %d nodes still active after %d rounds", ErrMaxRounds, remaining, stats.Rounds)
	}
	if o, ok := cfg.Tracer.(RunEndObserver); ok {
		o.OnRunEnd(stats)
	}
	return stats, nil
}

// execRound runs Round on every active node, in parallel chunks when the
// pool has more than one worker, writing into the indexed result slots.
func (e *engine) execRound() {
	n := len(e.activeList)
	workers := e.workers
	if workers > n {
		workers = n
	}
	for len(e.inboxes) < max(workers, 1) {
		e.inboxes = append(e.inboxes, make([]PortMessage, e.tp.MaxDegree))
	}
	if workers <= 1 {
		for _, v := range e.activeList {
			e.runNode(int(v), e.inboxes[0])
		}
		return
	}
	chunk := engineChunk(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(inbox []PortMessage) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for _, v := range e.activeList[lo:hi] {
					e.runNode(int(v), inbox)
				}
			}
		}(e.inboxes[w])
	}
	wg.Wait()
}

// engineChunk picks the work-stealing grain: enough chunks per worker that
// an expensive node cannot strand the pool, large enough to amortize the
// atomic claim.
func engineChunk(n, workers int) int {
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}
	return chunk
}

// runNode expands node v's inbox into the worker's scratch and executes
// its round. The scratch serves the worker's next node before routing, so
// an outbox that aliases the inbox is copied out first.
func (e *engine) runNode(v int, scratch []PortMessage) {
	lo := e.tp.Start[v]
	n := e.boxCnt[v]
	in := scratch[:n:n]
	for i, d := range e.box[lo : lo+n] {
		in[i] = PortMessage{Port: int(d.port), Payload: e.payCur[d.off : d.off+d.n : d.off+d.n]}
	}
	out, done := e.nodes[v].Round(in)
	if aliases(out, in) {
		out = slices.Clone(out)
	}
	e.results[v] = nodeResult{out: out, done: done}
}

// aliases reports whether out starts inside in, the only way an outbox
// can share memory with an inbox whose capacity ends at its length.
func aliases(out, in []PortMessage) bool {
	if len(out) == 0 {
		return false
	}
	for i := range in {
		if &in[i] == &out[0] {
			return true
		}
	}
	return false
}

// route validates node v's outbox and delivers it into the next-round
// arenas, updating stats and firing the tracer. Validation order (invalid
// port, duplicate port, bandwidth) and partial accounting on error match
// the legacy engine exactly.
func (e *engine) route(v int, out []PortMessage, stats *Stats) error {
	tp, cfg := e.tp, e.cfg
	deg := int(tp.Start[v+1] - tp.Start[v])
	routed := 0
	var err error
	for _, m := range out {
		if m.Port < 0 || m.Port >= deg {
			err = fmt.Errorf("simnet: node %d sent on invalid port %d", v, m.Port)
			break
		}
		if e.dupBits[m.Port>>6]&(1<<(uint(m.Port)&63)) != 0 {
			err = fmt.Errorf("simnet: node %d sent twice on port %d in one round", v, m.Port)
			break
		}
		e.dupBits[m.Port>>6] |= 1 << (uint(m.Port) & 63)
		routed++
		if cfg.MaxBytesPerMessage > 0 && len(m.Payload) > cfg.MaxBytesPerMessage {
			err = fmt.Errorf("%w: node %d sent %d bytes (limit %d)",
				ErrBandwidthExceeded, v, len(m.Payload), cfg.MaxBytesPerMessage)
			break
		}
		ei := tp.Start[v] + int32(m.Port)
		d := tp.Dst[ei]
		if !e.active[d] {
			continue // delivered into the void: dst already halted
		}
		// Copy-on-deliver: the receiver gets its own bytes, so the sender
		// may reuse its payload buffer the moment Round returns.
		off := len(e.payNext)
		e.payNext = append(e.payNext, m.Payload...)
		payload := e.payNext[off : off+len(m.Payload) : off+len(m.Payload)]
		e.box[tp.Start[d]+e.boxCnt[d]] = delivery{port: tp.RevPort[ei], off: int32(off), n: int32(len(m.Payload))}
		e.boxCnt[d]++
		if cfg.Tracer != nil {
			cfg.Tracer.OnMessage(stats.Rounds, v, int(d), payload)
		}
		stats.Messages++
		stats.Bytes += int64(len(m.Payload))
		if len(m.Payload) > stats.MaxMessageBytes {
			stats.MaxMessageBytes = len(m.Payload)
		}
	}
	// Clear the duplicate bitset by re-walking the ports that set it.
	for _, m := range out[:routed] {
		e.dupBits[m.Port>>6] &^= 1 << (uint(m.Port) & 63)
	}
	return err
}

// runFlat is the Run implementation on the flat engine.
func runFlat(g *graph.Graph, nodes []Node, cfg Config) (Stats, error) {
	k := g.N()
	if len(nodes) != k {
		return Stats{}, fmt.Errorf("simnet: %d nodes for %d vertices", len(nodes), k)
	}
	ctxs := make([]Context, k)
	root := rng.New(cfg.Seed)
	for v := 0; v < k; v++ {
		ctxs[v] = Context{ID: v, Degree: g.Degree(v), NumNodes: k, RNG: root.Split()}
		nodes[v].Init(&ctxs[v])
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := acquireEngine(g.Ports())
	defer releaseEngine(e)
	e.nodes, e.cfg, e.workers = nodes, cfg, workers
	return e.run()
}

// engines pools finished engines across runs and graphs. Trial loops run
// thousands of simulations on one graph; reusing the arenas keeps them from
// allocating per run, and the pool drops what the GC finds idle.
var engines sync.Pool

// acquireEngine returns a pooled engine, or a new one, sized for tp, with
// every node active and empty inboxes.
func acquireEngine(tp *graph.Ports) *engine {
	e, _ := engines.Get().(*engine)
	if e == nil {
		e = &engine{}
	}
	k := len(tp.Start) - 1
	e.tp = tp
	e.box = resized(e.box, int(tp.Start[k]))
	e.boxCnt = resized(e.boxCnt, k)
	e.results = resized(e.results, k)
	e.active = resized(e.active, k)
	// The bitset is all zero between runs: route clears every bit it sets.
	e.dupBits = resized(e.dupBits, (tp.MaxDegree+64)/64+1)
	for i, in := range e.inboxes {
		if len(in) < tp.MaxDegree {
			e.inboxes = e.inboxes[:i] // execRound regrows them
			break
		}
	}
	e.payCur = e.payCur[:0]
	e.activeList = e.activeList[:0]
	for v := 0; v < k; v++ {
		e.active[v] = true
		e.activeList = append(e.activeList, int32(v))
	}
	return e
}

// releaseEngine drops e's references to the run's graph, nodes, tracer and
// outboxes and returns it to the pool.
func releaseEngine(e *engine) {
	e.tp, e.nodes, e.cfg = nil, nil, Config{}
	clear(e.results)
	engines.Put(e)
}

// resized returns s with length n and every element zero, reusing its
// array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
