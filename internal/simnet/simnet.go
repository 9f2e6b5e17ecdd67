// Package simnet is a synchronous message-passing network simulator for the
// CONGEST and LOCAL models.
//
// Execution proceeds in lock-step rounds, as in the standard models: in each
// round every node receives the messages its neighbors sent in the previous
// round, performs local computation, and emits at most one message per
// incident edge. Run executes rounds on a flat, deterministic engine (see
// engine.go): CSR-flattened topology tables compiled once per graph,
// pooled inbox arenas, and a bounded worker pool that executes
// node programs in chunks while all routing and tracing stay serial in
// node-index order — so Stats, tracer event streams and node states are
// byte-identical at any Config.Workers value. The legacy goroutine-per-node
// coordinator is retained as RunChannel for differential testing and
// benchmarking.
//
// The CONGEST bandwidth restriction is enforced by Config.MaxBytesPerMessage
// (a message of B bits per edge per round; 0 disables the limit, giving the
// LOCAL model). Nodes see only local information: their identifier, degree,
// the number of nodes k, a private RNG, and port-numbered neighbors.
package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

// ErrBandwidthExceeded is returned when a node sends a message larger than
// the configured CONGEST limit.
var ErrBandwidthExceeded = errors.New("simnet: message exceeds bandwidth limit")

// ErrMaxRounds is returned when the simulation hits Config.MaxRounds before
// all nodes halt.
var ErrMaxRounds = errors.New("simnet: round limit reached before termination")

// PortMessage is a message on a specific port (edge index in the node's
// neighbor list).
type PortMessage struct {
	// Port is the index of the incident edge: for outgoing messages, the
	// destination; for incoming, the source.
	Port int
	// Payload is the message body; its length is charged against the
	// bandwidth limit. Both engines copy payloads on delivery, so a sender may
	// reuse its buffer as soon as Round returns and a receiver mutating a
	// delivered payload cannot corrupt anyone else's inbox; delivered
	// payloads are only valid for the round they arrive in.
	Payload []byte
}

// Context gives a node its local view of the network.
type Context struct {
	// ID is the node's unique identifier.
	ID int
	// Degree is the number of incident edges (ports 0 … Degree−1).
	Degree int
	// NumNodes is k, known to all nodes as in the paper's protocols.
	NumNodes int
	// RNG is the node's private randomness.
	RNG *rng.RNG
}

// Node is a synchronous state machine. Implementations must not retain or
// mutate the inbox slice across rounds.
type Node interface {
	// Init is called once before the first round.
	Init(ctx *Context)
	// Round consumes the messages delivered this round and returns the
	// messages to send (at most one per port) plus whether the node halts.
	// A halted node sends nothing afterwards and receives nothing.
	Round(in []PortMessage) (out []PortMessage, done bool)
}

// Config controls the simulation model.
type Config struct {
	// MaxBytesPerMessage is the CONGEST bandwidth B in bytes per edge per
	// round; 0 means unlimited (LOCAL model).
	MaxBytesPerMessage int
	// MaxRounds aborts runaway protocols; 0 means a default of 10·k + 1000
	// rounds.
	MaxRounds int
	// Seed derives every node's private RNG.
	Seed uint64
	// Tracer, if non-nil, observes rounds, messages and halts.
	Tracer Tracer
	// Workers bounds the flat engine's node-execution pool; 0 means
	// GOMAXPROCS. Stats, tracer streams and node states are byte-identical
	// at any value. RunChannel ignores it (one goroutine per node).
	Workers int
}

// Stats summarizes an execution.
type Stats struct {
	// Rounds is the number of rounds executed until all nodes halted.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int
	// Bytes is the total payload volume delivered.
	Bytes int64
	// MaxMessageBytes is the largest single payload observed (the realized
	// CONGEST bandwidth).
	MaxMessageBytes int
}

// Run executes nodes on topology g until every node halts. nodes[i] is
// placed at vertex i; node IDs are the vertex indices. It returns an error
// if a node sends to an invalid or duplicate port, exceeds the bandwidth
// limit, or the round limit is reached.
//
// Run uses the flat round engine (engine.go): deterministic at any
// Config.Workers value, with Stats, tracer event streams and node states
// byte-identical to the legacy RunChannel engine.
func Run(g *graph.Graph, nodes []Node, cfg Config) (Stats, error) {
	return runFlat(g, nodes, cfg)
}

// RunChannel is the legacy goroutine-per-node engine: every node runs in
// its own goroutine and a coordinator exchanges inbox/outbox pairs over
// channels each round. It is retained as the differential-testing reference
// for the flat engine and as the BenchmarkRunChannelRef baseline; new code
// should call Run. It copies delivered payloads exactly as Run does, and
// ignores Config.Workers.
func RunChannel(g *graph.Graph, nodes []Node, cfg Config) (Stats, error) {
	k := g.N()
	if len(nodes) != k {
		return Stats{}, fmt.Errorf("simnet: %d nodes for %d vertices", len(nodes), k)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10*k + 1000
	}

	root := rng.New(cfg.Seed)
	workers := make([]*worker, k)
	for v := 0; v < k; v++ {
		w := &worker{
			node:  nodes[v],
			in:    make(chan []PortMessage, 1),
			out:   make(chan roundResult, 1),
			index: v,
		}
		ctx := &Context{
			ID:       v,
			Degree:   g.Degree(v),
			NumNodes: k,
			RNG:      root.Split(),
		}
		nodes[v].Init(ctx)
		workers[v] = w
	}

	var wg sync.WaitGroup
	wg.Add(k)
	for _, w := range workers {
		go func(w *worker) {
			defer wg.Done()
			w.loop()
		}(w)
	}
	defer func() {
		for _, w := range workers {
			close(w.in)
		}
		wg.Wait()
	}()

	// Precompute reverse port lookup: ports[v][u] is u's port index at v.
	ports := make([]map[int]int, k)
	for v := 0; v < k; v++ {
		nb := g.Neighbors(v)
		ports[v] = make(map[int]int, len(nb))
		for i, u := range nb {
			ports[v][u] = i
		}
	}

	var stats Stats
	inboxes := make([][]PortMessage, k)
	active := make([]bool, k)
	remaining := k
	for v := range active {
		active[v] = true
	}

	for stats.Rounds < maxRounds && remaining > 0 {
		stats.Rounds++
		if cfg.Tracer != nil {
			cfg.Tracer.OnRoundStart(stats.Rounds, remaining)
		}
		// Dispatch inboxes to active nodes.
		for v, w := range workers {
			if !active[v] {
				continue
			}
			w.in <- inboxes[v]
			inboxes[v] = nil
		}
		// Collect outboxes and route.
		for v, w := range workers {
			if !active[v] {
				continue
			}
			res := <-w.out
			if res.done {
				active[v] = false
				remaining--
				if cfg.Tracer != nil {
					cfg.Tracer.OnHalt(stats.Rounds, v)
				}
			}
			seen := make(map[int]bool, len(res.out))
			for _, m := range res.out {
				if m.Port < 0 || m.Port >= g.Degree(v) {
					return stats, fmt.Errorf("simnet: node %d sent on invalid port %d", v, m.Port)
				}
				if seen[m.Port] {
					return stats, fmt.Errorf("simnet: node %d sent twice on port %d in one round", v, m.Port)
				}
				seen[m.Port] = true
				if cfg.MaxBytesPerMessage > 0 && len(m.Payload) > cfg.MaxBytesPerMessage {
					return stats, fmt.Errorf("%w: node %d sent %d bytes (limit %d)",
						ErrBandwidthExceeded, v, len(m.Payload), cfg.MaxBytesPerMessage)
				}
				dst := g.Neighbors(v)[m.Port]
				if !active[dst] {
					continue // delivered into the void: dst already halted
				}
				dstPort := ports[dst][v]
				// Copy-on-deliver, as in Run: the sender may reuse its
				// buffer next round while the receiver reads this one.
				payload := bytes.Clone(m.Payload)
				inboxes[dst] = append(inboxes[dst], PortMessage{Port: dstPort, Payload: payload})
				if cfg.Tracer != nil {
					cfg.Tracer.OnMessage(stats.Rounds, v, dst, payload)
				}
				stats.Messages++
				stats.Bytes += int64(len(m.Payload))
				if len(m.Payload) > stats.MaxMessageBytes {
					stats.MaxMessageBytes = len(m.Payload)
				}
			}
		}
	}
	if remaining > 0 {
		return stats, fmt.Errorf("%w: %d nodes still active after %d rounds", ErrMaxRounds, remaining, stats.Rounds)
	}
	if o, ok := cfg.Tracer.(RunEndObserver); ok {
		o.OnRunEnd(stats)
	}
	return stats, nil
}

type roundResult struct {
	out  []PortMessage
	done bool
}

type worker struct {
	node  Node
	in    chan []PortMessage
	out   chan roundResult
	index int
}

func (w *worker) loop() {
	for in := range w.in {
		out, done := w.node.Round(in)
		w.out <- roundResult{out: out, done: done}
		if done {
			return
		}
	}
}
