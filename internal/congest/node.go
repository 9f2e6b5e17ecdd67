// Package congest implements the paper's CONGEST-model protocols: leader
// election and BFS-tree construction by max-ID flooding with echo
// termination, τ-token packaging (Theorem 5.1), and the full distributed
// uniformity tester of Theorem 1.4 built on top of them.
//
// The implementation is faithful to the model — and slightly stronger than
// the paper's assumptions: nodes need to know neither the diameter D nor
// the network size k. Completion is detected via echoes carrying subtree
// sizes and "bigger root seen" evidence (a completed tree with no such
// evidence necessarily spans the whole graph), and the root derives the
// protocol parameters (τ, T) from the discovered k before broadcasting
// them with the start signal. Every message fits in the simulator's
// CONGEST budget (16 bytes = Θ(log n) bits).
package congest

import (
	"fmt"
	"math"
	"slices"

	"github.com/unifdist/unifdist/internal/simnet"
)

// Mode selects how much of the protocol runs.
type Mode int

const (
	// ModePackagingOnly stops after τ-token packaging (Theorem 5.1).
	ModePackagingOnly Mode = iota + 1
	// ModeUniformity additionally tests each package, aggregates rejection
	// counts up the tree and broadcasts the root's decision (Theorem 1.4).
	ModeUniformity
)

// completeSizeMask packs the subtree size and the bigger-root-evidence flag
// into msgComplete's b field.
const (
	completeSizeMask  = 0x7fffffff
	completeBiggerBit = 1 << 31
)

// Port flags: what the node knows about the neighbor on a port.
const (
	portPending  uint8 = 1 << iota // our announce is unanswered
	portChild                      // the neighbor accepted: it is a child
	portSized                      // the child's completion echo arrived
	portCounted                    // the child's COUNT arrived
	portTokDone                    // the child forwarded all its tokens
	portReported                   // the child's report arrived
)

// port is one incident edge in 24 bytes. Its outgoing FIFO keeps the
// oldest message inline — typ is 0 when the FIFO is empty — and the
// younger ones, in order, in the node's backlog; at most one message
// drains per round, which serializes logical messages sharing an edge.
type port struct {
	a     uint64
	b     uint32
	typ   msgType
	flags uint8
	wire  [maxMessageBytes]byte // encoding of the message sent this round
}

func (pt *port) head() message     { return message{a: pt.a, b: pt.b, typ: pt.typ} }
func (pt *port) setHead(m message) { pt.a, pt.b, pt.typ = m.a, m.b, m.typ }

// queued is a backlogged message and the port it waits for.
type queued struct {
	message
	port int32
}

// nodeConfig is what every node of a run shares: the mode and the
// configured parameters. tau == 0 means "unknown k": the root derives
// (τ, T) from the discovered network size via solver.
type nodeConfig struct {
	mode           Mode
	tau, threshold int
	solver         func(k int) (tau, threshold int, err error)
}

// node is the per-vertex protocol state machine. Its port state, child
// list and outbox are the slots lo … lo+deg−1 of its arena's per-port
// slabs (see arena.go); those slots, the backlog and the held tokens keep
// their capacity across runs, and Init resets everything else, so one node
// runs many trials without allocating.
type node struct {
	a       *arena
	lo, deg int32
	tokens  []uint64 // this node's initial samples (s ≥ 1 supported)
	backlog []queued // FIFO of messages waiting behind a port's head
	held    []uint64 // held[heldHead:] are the tokens still held

	nodeState
	// err records a protocol-invariant violation for the driver.
	err error
}

// nodeState is everything Init resets: protocol counters as int32, since
// every one is bounded by k or τ.
type nodeState struct {
	id int32
	// Active parameters, fixed once the start broadcast arrives (or, at
	// the root, once the tree completes).
	tau, t int32

	// BFS / leader-election state (reset on adopting a larger root).
	root       int32
	dist       int32
	parentPort int32 // −1 while the node believes it is the root
	pending    int32 // ports flagged portPending
	children   int32 // ports flagged portChild, listed by childPorts
	sized      int32 // children flagged portSized; sizeSum sums their sizes
	sizeSum    int32
	treeSize   int32 // root only: discovered k

	// COUNT-wave state (computable only after τ is known).
	counted  int32 // children flagged portCounted; countSum sums their counts
	countSum int32
	cSelf    int32

	// Token-pipeline state. Once finalized, the node's packages are
	// held[heldHead:] in runs of τ.
	heldHead  int32
	sentUp    int32
	tokDone   int32 // children flagged portTokDone
	packages  int32
	discarded int32

	// Report/decision state (ModeUniformity).
	localRejects  int32
	reported      int32 // children flagged portReported, whose reports sum to
	reportRej     int32 // reportRej rejecting packages out of reportVir
	reportVir     int32
	totalRejects  int32
	totalVirtuals int32
	decision      int32 // −1 unknown, 0 reject, 1 accept

	sawBigger    bool // evidence that a root larger than ours exists
	completeSent bool
	treeDone     bool // true root only
	started      bool
	haveCount    bool
	tokDoneSent  bool
	finalized    bool
	reportSent   bool
}

// ports returns the node's port state, indexed by port.
func (nd *node) ports() []port { return nd.a.ports[nd.lo : nd.lo+nd.deg] }

// childPorts returns the accepted children's ports, in accept order.
func (nd *node) childPorts() []int32 { return nd.a.children[nd.lo : nd.lo+nd.children] }

// Init implements simnet.Node: it resets the run state, keeping buffers.
func (nd *node) Init(ctx *simnet.Context) {
	if ctx.Degree != int(nd.deg) {
		// Only running an arena on another graph than its own gets here.
		panic(fmt.Sprintf("congest: node %d has %d ports, run at degree %d", ctx.ID, nd.deg, ctx.Degree))
	}
	nd.nodeState = nodeState{id: int32(ctx.ID), root: int32(ctx.ID), parentPort: -1, decision: -1}
	nd.err = nil
	nd.held = append(nd.held[:0], nd.tokens...)
	nd.backlog = nd.backlog[:0]
	// The initial announce wave: claim to be the root.
	ports := nd.ports()
	for p := range ports {
		ports[p] = port{typ: msgAnnounce, a: uint64(nd.root), flags: portPending}
	}
	nd.pending = nd.deg
}

// Round implements simnet.Node.
func (nd *node) Round(in []simnet.PortMessage) ([]simnet.PortMessage, bool) {
	for _, pm := range in {
		m, err := decode(pm.Payload)
		if err != nil {
			nd.fail(err)
			return nil, true
		}
		nd.handle(pm.Port, m)
	}
	nd.step()
	out := nd.flush()
	return out, nd.isDone() && len(out) == 0
}

// Err returns the first protocol violation observed, if any.
func (nd *node) Err() error { return nd.err }

func (nd *node) fail(err error) {
	if nd.err == nil {
		nd.err = err
	}
}

func (nd *node) isRoot() bool { return nd.parentPort < 0 }

// handle processes one incoming message.
func (nd *node) handle(port int, m message) {
	pt := &nd.ports()[port]
	isChild := pt.flags&portChild != 0
	switch m.typ {
	case msgAnnounce:
		if int64(m.a) > int64(nd.root) {
			nd.adopt(int32(m.a), int32(m.b)+1, int32(port))
			return
		}
		// Decline, reporting our current root: the announcer records
		// "bigger root exists" evidence when ours is strictly larger.
		nd.enqueue(port, message{typ: msgReject, a: m.a, b: uint32(nd.root)})
	case msgAccept:
		if m.a == uint64(nd.root) && pt.flags&portPending != 0 {
			pt.flags = pt.flags&^portPending | portChild
			nd.pending--
			nd.a.children[nd.lo+nd.children] = int32(port)
			nd.children++
		}
	case msgReject:
		if m.a == uint64(nd.root) && pt.flags&portPending != 0 {
			pt.flags &^= portPending
			nd.pending--
			if int64(m.b) > int64(nd.root) {
				nd.sawBigger = true
			}
		}
	case msgComplete:
		if m.a == uint64(nd.root) && isChild && pt.flags&portSized == 0 {
			pt.flags |= portSized
			nd.sized++
			nd.sizeSum += int32(m.b & completeSizeMask)
			if m.b&completeBiggerBit != 0 {
				nd.sawBigger = true
			}
		}
	case msgStart:
		if int32(port) == nd.parentPort && !nd.started {
			nd.startPipeline(int64(m.a), int32(m.b))
		}
	case msgCount:
		if isChild && pt.flags&portCounted == 0 {
			pt.flags |= portCounted
			nd.counted++
			nd.countSum += int32(m.a)
		}
	case msgToken:
		if isChild {
			nd.hold(m.a)
		}
	case msgTokDone:
		if isChild && pt.flags&portTokDone == 0 {
			pt.flags |= portTokDone
			nd.tokDone++
		}
	case msgReport:
		if isChild && pt.flags&portReported == 0 {
			pt.flags |= portReported
			nd.reported++
			nd.reportRej += int32(m.a)
			nd.reportVir += int32(m.b)
		}
	case msgDecision:
		if int32(port) == nd.parentPort && nd.decision < 0 {
			nd.decision = int32(m.a)
			nd.toChildren(message{typ: msgDecision, a: m.a})
		}
	}
}

// adopt switches to a larger root announced on port with the given
// distance.
func (nd *node) adopt(root, dist, port int32) {
	nd.root = root
	nd.dist = dist
	nd.parentPort = port
	nd.pending, nd.children, nd.sized, nd.sizeSum = 0, 0, 0, 0
	nd.sawBigger = false
	nd.completeSent = false
	// Every queued announce, accept and complete named the root current
	// when it was queued. Roots only grow, so all of them are now stale and
	// would never be sent: drop them. Rejects stay, since they answer other
	// nodes' announces with the root those nodes named.
	ports := nd.ports()
	for p := range ports {
		ports[p].flags = 0
		if isTreeMsg(ports[p].typ) {
			ports[p].typ = 0
		}
	}
	nd.promote(true)
	for p := range ports {
		if int32(p) == port {
			nd.enqueue(p, message{typ: msgAccept, a: uint64(root)})
			continue
		}
		nd.enqueue(p, message{typ: msgAnnounce, a: uint64(root), b: uint32(dist)})
		ports[p].flags = portPending
		nd.pending++
	}
}

// isTreeMsg reports whether a message of type typ names the sender's root
// and so goes stale when the root changes.
func isTreeMsg(typ msgType) bool {
	return typ == msgAnnounce || typ == msgAccept || typ == msgComplete
}

// hold appends a token received from a child, first compacting the
// forwarded prefix if the buffer is full.
func (nd *node) hold(tok uint64) {
	if len(nd.held) == cap(nd.held) && nd.heldHead > 0 {
		nd.held = nd.held[:copy(nd.held, nd.held[nd.heldHead:])]
		nd.heldHead = 0
	}
	nd.held = append(nd.held, tok)
}

// toChildren queues m on every child port.
func (nd *node) toChildren(m message) {
	for _, p := range nd.childPorts() {
		nd.enqueue(int(p), m)
	}
}

// startPipeline fixes the protocol parameters and forwards the start
// signal down the tree; leaves can emit their COUNT immediately.
func (nd *node) startPipeline(tau int64, threshold int32) {
	if tau < 1 || tau > math.MaxInt32 {
		nd.fail(fmt.Errorf("congest: node %d received invalid τ=%d", nd.id, tau))
		return
	}
	nd.started = true
	nd.tau = int32(tau)
	nd.t = threshold
	nd.toChildren(message{typ: msgStart, a: uint64(tau), b: uint32(threshold)})
}

// step advances local state transitions after all messages of the round
// were handled.
func (nd *node) step() {
	nd.stepTreeCompletion()
	if nd.started {
		nd.stepCount()
	}
	if nd.haveCount {
		nd.stepPipeline()
	}
	if nd.a.cfg.mode == ModeUniformity && nd.finalized {
		nd.stepReport()
	}
}

// stepTreeCompletion sends the completion echo once every neighbor has
// responded to our announce and every child subtree has completed. A
// completed tree with no "bigger root" evidence necessarily spans the
// whole graph (every boundary response would otherwise carry a bigger
// root), so the root needs to know neither D nor k to declare victory.
func (nd *node) stepTreeCompletion() {
	if nd.completeSent || nd.pending > 0 || nd.sized < nd.children {
		return
	}
	size := 1 + nd.sizeSum
	if !nd.isRoot() {
		nd.completeSent = true
		packed := uint32(size) & completeSizeMask
		if nd.sawBigger {
			packed |= completeBiggerBit
		}
		nd.enqueue(int(nd.parentPort), message{typ: msgComplete, a: uint64(nd.root), b: packed})
		return
	}
	if nd.root == nd.id && !nd.sawBigger && !nd.started {
		nd.completeSent = true
		nd.treeDone = true
		nd.treeSize = size
		tau, threshold := nd.a.cfg.tau, nd.a.cfg.threshold
		if tau == 0 {
			if nd.a.cfg.solver == nil {
				nd.fail(fmt.Errorf("congest: node %d has no parameters and no solver", nd.id))
				return
			}
			var err error
			tau, threshold, err = nd.a.cfg.solver(int(size))
			if err != nil {
				nd.fail(fmt.Errorf("congest: parameter solver for k=%d: %w", size, err))
				return
			}
		}
		nd.startPipeline(int64(tau), int32(threshold))
	}
}

// stepCount emits c(v) = (1 + Σ c(children)) mod τ once every child's
// count arrived — the second convergecast, possible only after τ is known.
func (nd *node) stepCount() {
	if nd.haveCount || nd.counted < nd.children {
		return
	}
	// The paper's s = 1 start generalizes directly: this node contributes
	// its own |tokens| samples instead of one.
	nd.cSelf = (int32(len(nd.tokens)) + nd.countSum) % nd.tau
	nd.haveCount = true
	if !nd.isRoot() {
		nd.enqueue(int(nd.parentPort), message{typ: msgCount, a: uint64(nd.cSelf)})
	}
}

// stepPipeline forwards at most one token per round and finalizes
// packaging once the subtree's token stream has drained.
func (nd *node) stepPipeline() {
	if nd.sentUp < nd.cSelf && int(nd.heldHead) < len(nd.held) {
		tok := nd.held[nd.heldHead]
		nd.heldHead++
		if nd.isRoot() {
			nd.discarded++ // the paper's root discards its c(r) tokens
		} else {
			nd.enqueue(int(nd.parentPort), message{typ: msgToken, a: tok})
		}
		nd.sentUp++
	}
	if nd.sentUp == nd.cSelf && !nd.tokDoneSent {
		nd.tokDoneSent = true
		if !nd.isRoot() {
			nd.enqueue(int(nd.parentPort), message{typ: msgTokDone})
		}
	}
	if nd.finalized || !nd.tokDoneSent || nd.sentUp < nd.cSelf || nd.tokDone < nd.children {
		return
	}
	// All tokens this node will ever hold have arrived.
	kept := int32(len(nd.held)) - nd.heldHead
	if kept%nd.tau != 0 {
		nd.fail(fmt.Errorf("congest: node %d kept %d tokens, not a multiple of τ=%d",
			nd.id, kept, nd.tau))
	}
	nd.packages = kept / nd.tau
	for i := 0; i < int(nd.packages); i++ {
		if hasCollision(nd.pkg(i)) {
			nd.localRejects++
		}
	}
	nd.finalized = true
}

// pkg returns the node's i-th package.
func (nd *node) pkg(i int) []uint64 {
	lo := int(nd.heldHead) + i*int(nd.tau)
	hi := lo + int(nd.tau)
	return nd.held[lo:hi:hi]
}

// appendPackages appends the node's packages to dst.
func (nd *node) appendPackages(dst [][]uint64) [][]uint64 {
	for i := 0; i < int(nd.packages); i++ {
		dst = append(dst, nd.pkg(i))
	}
	return dst
}

// stepReport aggregates (rejects, virtuals) once all children reported;
// the root then decides and broadcasts.
func (nd *node) stepReport() {
	if nd.reportSent || nd.reported < nd.children {
		return
	}
	rej := nd.localRejects + nd.reportRej
	vir := nd.packages + nd.reportVir
	nd.totalRejects, nd.totalVirtuals = rej, vir
	nd.reportSent = true
	if !nd.isRoot() {
		nd.enqueue(int(nd.parentPort), message{typ: msgReport, a: uint64(rej), b: uint32(vir)})
		return
	}
	// Root decision: reject iff at least T virtual nodes reject.
	acc := uint64(0)
	if rej < nd.t {
		acc = 1
	}
	nd.decision = int32(acc)
	nd.toChildren(message{typ: msgDecision, a: acc})
}

// isDone reports whether the node's role in the protocol has ended. The
// caller additionally requires the outgoing queues to have drained.
func (nd *node) isDone() bool {
	if nd.err != nil {
		return true
	}
	if !nd.finalized {
		return false
	}
	if nd.a.cfg.mode == ModePackagingOnly {
		return true
	}
	return nd.decision >= 0
}

// enqueue appends a message to a port's outgoing FIFO: inline if the
// FIFO is empty, else at the end of the backlog.
func (nd *node) enqueue(port int, m message) {
	if pt := &nd.ports()[port]; pt.typ == 0 {
		pt.setHead(m)
		return
	}
	nd.backlog = append(nd.backlog, queued{message: m, port: int32(port)})
}

// promote moves each port's oldest backlogged message inline wherever the
// port's head is free, compacting the rest of the backlog in order; with
// dropTree it first discards backlogged tree messages.
func (nd *node) promote(dropTree bool) {
	ports := nd.ports()
	kept := nd.backlog[:0]
	for _, q := range nd.backlog {
		if dropTree && isTreeMsg(q.typ) {
			continue
		}
		if pt := &ports[q.port]; pt.typ == 0 {
			pt.setHead(q.message)
			continue
		}
		kept = append(kept, q)
	}
	nd.backlog = kept
}

// flush pops at most one message per port, in port order, encoding each
// into the port's wire buffer. The returned slice and payloads are reused
// next round; the simulator copies them on delivery.
func (nd *node) flush() []simnet.PortMessage {
	out := nd.a.out[nd.lo : nd.lo : nd.lo+nd.deg]
	ports := nd.ports()
	for p := range ports {
		pt := &ports[p]
		if pt.typ == 0 {
			continue
		}
		out = append(out, simnet.PortMessage{Port: p, Payload: appendMessage(pt.wire[:0], pt.head())})
		pt.typ = 0
	}
	if len(nd.backlog) > 0 {
		nd.promote(false)
	}
	return out
}

// hasCollision reports whether the package contains two equal samples:
// pairwise for the small packages the protocol uses, by sorting a copy
// otherwise.
func hasCollision(pkg []uint64) bool {
	if len(pkg) > 32 {
		s := slices.Clone(pkg)
		slices.Sort(s)
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return true
			}
		}
		return false
	}
	for i, v := range pkg {
		for _, w := range pkg[i+1:] {
			if v == w {
				return true
			}
		}
	}
	return false
}
