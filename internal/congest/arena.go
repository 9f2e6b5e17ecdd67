package congest

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
)

// arena is one graph's worth of protocol nodes: a node slab plus per-port
// slabs in which each node owns the slots of its ports — port state, child
// list and outbox. It is built once per graph and re-armed for every run.
// Only the held token buffers and the backlogs grow, and both keep their
// capacity across runs, so a trial loop on one arena stops allocating per
// node after its first runs.
type arena struct {
	cfg   nodeConfig
	nodes []node
	sim   []simnet.Node // &nodes[v], as the simulator takes them

	// Per-port slabs: node v owns the slots of its ports.
	ports    []port
	children []int32
	out      []simnet.PortMessage
}

func newArena(g *graph.Graph) *arena {
	k, edges := g.N(), 2*g.NumEdges()
	a := &arena{
		nodes:    make([]node, k),
		sim:      make([]simnet.Node, k),
		ports:    make([]port, edges),
		children: make([]int32, edges),
		out:      make([]simnet.PortMessage, edges),
	}
	lo := 0
	for v := range a.nodes {
		a.nodes[v] = node{a: a, lo: int32(lo), deg: int32(g.Degree(v))}
		a.sim[v] = &a.nodes[v]
		lo += g.Degree(v)
	}
	return a
}

// armSingle configures every node for the next run with one sample each:
// node v starts with tokens[v]. Init copies the sample, so tokens may be
// refilled once the run returns.
func (a *arena) armSingle(tokens []uint64, mode Mode, tau, threshold int, solver func(k int) (int, int, error)) error {
	if len(tokens) != len(a.nodes) {
		return fmt.Errorf("congest: %d tokens for %d nodes", len(tokens), len(a.nodes))
	}
	if err := a.arm(mode, tau, threshold, solver); err != nil {
		return err
	}
	for v := range a.nodes {
		a.nodes[v].tokens = tokens[v : v+1 : v+1]
	}
	return nil
}

// armMulti is armSingle for the multi-sample generalization: node v
// starts with the sample multiset tokensPerNode[v].
func (a *arena) armMulti(tokensPerNode [][]uint64, mode Mode, tau, threshold int, solver func(k int) (int, int, error)) error {
	if len(tokensPerNode) != len(a.nodes) {
		return fmt.Errorf("congest: %d token sets for %d nodes", len(tokensPerNode), len(a.nodes))
	}
	if err := a.arm(mode, tau, threshold, solver); err != nil {
		return err
	}
	for v := range a.nodes {
		a.nodes[v].tokens = tokensPerNode[v]
	}
	return nil
}

// arm sets the configuration every node shares. A package size below 1 is
// an error unless the root will derive it.
func (a *arena) arm(mode Mode, tau, threshold int, solver func(k int) (int, int, error)) error {
	if tau < 1 && solver == nil {
		return fmt.Errorf("congest: package size τ=%d < 1", tau)
	}
	a.cfg = nodeConfig{mode: mode, tau: tau, threshold: threshold, solver: solver}
	return nil
}
