package congest

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
)

// AggregateOp is a commutative, associative reduction over node values.
type AggregateOp int

const (
	// AggSum adds the values.
	AggSum AggregateOp = iota + 1
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
)

// String implements fmt.Stringer.
func (op AggregateOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggregateOp(%d)", int(op))
	}
}

func (op AggregateOp) apply(a, b uint64) uint64 {
	switch op {
	case AggSum:
		return a + b
	case AggMin:
		if b < a {
			return b
		}
		return a
	case AggMax:
		if b > a {
			return b
		}
		return a
	default:
		return a
	}
}

// AggregateResult reports a distributed reduction.
type AggregateResult struct {
	// Value is the network-wide reduction, known to every node on return.
	Value uint64
	// Root is the elected leader.
	Root int
	// Stats is the simulator accounting; rounds are O(D).
	Stats simnet.Stats
}

// Aggregate computes a global reduction (sum, min or max) of per-node
// values in O(D) CONGEST rounds, using the same leader-election + echo
// substrate as the uniformity protocol: values ride up the completion
// echoes and the root broadcasts the result. It is exposed as a reusable
// building block — the uniformity protocol's report phase is exactly an
// AggSum of per-node rejection counts.
func Aggregate(g *graph.Graph, values []uint64, op AggregateOp, seed uint64) (AggregateResult, error) {
	if len(values) != g.N() {
		return AggregateResult{}, fmt.Errorf("congest: %d values for %d nodes", len(values), g.N())
	}
	switch op {
	case AggSum, AggMin, AggMax:
	default:
		return AggregateResult{}, fmt.Errorf("congest: unknown aggregate op %d", op)
	}
	nodes := make([]simnet.Node, g.N())
	impls := make([]*aggNode, g.N())
	for v := range nodes {
		impls[v] = &aggNode{op: op, value: values[v]}
		nodes[v] = impls[v]
	}
	stats, err := simnet.Run(g, nodes, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Seed:               seed,
	})
	if err != nil {
		return AggregateResult{}, err
	}
	res := AggregateResult{Root: -1, Stats: stats}
	for v, nd := range impls {
		if nd.err != nil {
			return AggregateResult{}, fmt.Errorf("congest: node %d: %w", v, nd.err)
		}
		if !nd.haveResult {
			return AggregateResult{}, fmt.Errorf("congest: node %d ended without the result", v)
		}
		if nd.isRoot() {
			if res.Root != -1 {
				return AggregateResult{}, fmt.Errorf("congest: multiple roots")
			}
			res.Root = v
			res.Value = nd.result
		} else if v == 0 {
			res.Value = nd.result
		}
	}
	if res.Root == -1 {
		return AggregateResult{}, fmt.Errorf("congest: no root elected")
	}
	// Consistency check: every node must hold the same result.
	for v, nd := range impls {
		if nd.result != res.Value {
			return AggregateResult{}, fmt.Errorf("congest: node %d holds %d, root %d", v, nd.result, res.Value)
		}
	}
	return res, nil
}

// Aggregate wire protocol: the tree wave reuses msgAnnounce/Accept/Reject/
// Complete semantics; the aggregated value follows the completion echo as a
// msgToken on the same FIFO (value fits the 9-byte token format), and the
// root broadcasts the result as a msgDecision-style msgToken downward after
// a msgStart marker.
type aggNode struct {
	ctx   *simnet.Context
	op    AggregateOp
	value uint64

	outQ [][]message

	root         int
	dist         int
	parentPort   int
	pending      map[int]bool
	children     map[int]bool
	childSize    map[int]uint32
	childValue   map[int]uint64
	childHasVal  map[int]bool
	sawBigger    bool
	completeSent bool

	haveResult bool
	result     uint64
	err        error
}

// Init implements simnet.Node.
func (nd *aggNode) Init(ctx *simnet.Context) {
	nd.ctx = ctx
	nd.outQ = make([][]message, ctx.Degree)
	nd.root = ctx.ID
	nd.parentPort = -1
	nd.reset()
	for p := 0; p < ctx.Degree; p++ {
		nd.enqueue(p, message{typ: msgAnnounce, a: uint64(nd.root), b: 0})
		nd.pending[p] = true
	}
}

func (nd *aggNode) reset() {
	nd.pending = make(map[int]bool)
	nd.children = make(map[int]bool)
	nd.childSize = make(map[int]uint32)
	nd.childValue = make(map[int]uint64)
	nd.childHasVal = make(map[int]bool)
	nd.sawBigger = false
	nd.completeSent = false
}

// Round implements simnet.Node.
func (nd *aggNode) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, pm := range in {
		m, err := decode(pm.Payload)
		if err != nil {
			nd.err = err
			return nil, true
		}
		nd.handle(pm.Port, m)
	}
	nd.step()
	out := nd.flush()
	return out, nd.haveResult && len(out) == 0
}

func (nd *aggNode) isRoot() bool { return nd.parentPort < 0 }

func (nd *aggNode) handle(port int, m message) {
	switch m.typ {
	case msgAnnounce:
		root, dist := int(m.a), int(m.b)
		if root > nd.root {
			nd.root = root
			nd.dist = dist + 1
			nd.parentPort = port
			nd.reset()
			// Drop queued value tokens from the superseded root: they are
			// not root-tagged, and a stale one delivered to a node that
			// became our parent under the new root would be misread as the
			// result broadcast.
			nd.purgeTokens()
			nd.enqueue(port, message{typ: msgAccept, a: uint64(root)})
			for p := 0; p < nd.ctx.Degree; p++ {
				if p != port {
					nd.enqueue(p, message{typ: msgAnnounce, a: uint64(root), b: uint32(nd.dist)})
					nd.pending[p] = true
				}
			}
			return
		}
		nd.enqueue(port, message{typ: msgReject, a: m.a, b: uint32(nd.root)})
	case msgAccept:
		if int(m.a) == nd.root && nd.pending[port] {
			delete(nd.pending, port)
			nd.children[port] = true
		}
	case msgReject:
		if int(m.a) == nd.root && nd.pending[port] {
			delete(nd.pending, port)
			if int(m.b) > nd.root {
				nd.sawBigger = true
			}
		}
	case msgComplete:
		if int(m.a) == nd.root && nd.children[port] {
			nd.childSize[port] = uint32(m.b) & completeSizeMask
			if m.b&completeBiggerBit != 0 {
				nd.sawBigger = true
			}
		}
	case msgToken:
		// Before the result broadcast: a child's aggregated value (follows
		// its COMPLETE on the same FIFO). After: the root's result arriving
		// from the parent.
		if nd.children[port] && !nd.childHasVal[port] {
			nd.childValue[port] = m.a
			nd.childHasVal[port] = true
			return
		}
		if port == nd.parentPort && !nd.haveResult {
			nd.haveResult = true
			nd.result = m.a
			for p := range nd.children {
				nd.enqueue(p, message{typ: msgToken, a: m.a})
			}
		}
	}
}

func (nd *aggNode) step() {
	if nd.completeSent || len(nd.pending) > 0 {
		return
	}
	for p := range nd.children {
		if _, ok := nd.childSize[p]; !ok {
			return
		}
		if !nd.childHasVal[p] {
			return
		}
	}
	size := 1
	agg := nd.value
	for p := range nd.children {
		size += int(nd.childSize[p])
		agg = nd.op.apply(agg, nd.childValue[p])
	}
	if !nd.isRoot() {
		nd.completeSent = true
		packed := uint32(size) & completeSizeMask
		if nd.sawBigger {
			packed |= completeBiggerBit
		}
		nd.enqueue(nd.parentPort, message{typ: msgComplete, a: uint64(nd.root), b: packed})
		nd.enqueue(nd.parentPort, message{typ: msgToken, a: agg})
		return
	}
	if nd.root == nd.ctx.ID && !nd.sawBigger {
		nd.completeSent = true
		nd.haveResult = true
		nd.result = agg
		for p := range nd.children {
			nd.enqueue(p, message{typ: msgToken, a: agg})
		}
	}
}

func (nd *aggNode) enqueue(port int, m message) {
	nd.outQ[port] = append(nd.outQ[port], m)
}

// purgeTokens removes queued value tokens after a root change.
func (nd *aggNode) purgeTokens() {
	for p := range nd.outQ {
		kept := nd.outQ[p][:0]
		for _, m := range nd.outQ[p] {
			if m.typ != msgToken {
				kept = append(kept, m)
			}
		}
		nd.outQ[p] = kept
	}
}

func (nd *aggNode) flush() []simnet.PortMessage {
	var out []simnet.PortMessage
	for p := range nd.outQ {
		for len(nd.outQ[p]) > 0 {
			m := nd.outQ[p][0]
			if nd.isStale(m) {
				nd.outQ[p] = nd.outQ[p][1:]
				continue
			}
			nd.outQ[p] = nd.outQ[p][1:]
			out = append(out, simnet.PortMessage{Port: p, Payload: appendMessage(nil, m)})
			break
		}
	}
	return out
}

func (nd *aggNode) isStale(m message) bool {
	switch m.typ {
	case msgAnnounce, msgAccept, msgComplete:
		return int(m.a) != nd.root
	default:
		return false
	}
}
