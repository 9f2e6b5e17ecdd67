package congest

import (
	"strings"
	"testing"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
)

// newTestNode wires a node with degree ports for white-box tests: the
// center of a star arena, initialized as vertex id.
func newTestNode(id, degree int, tau int) *node {
	a := newArena(graph.NewStar(degree + 1))
	a.cfg = nodeConfig{mode: ModePackagingOnly, tau: tau}
	nd := &a.nodes[0]
	nd.tokens = []uint64{uint64(100 + id)}
	nd.Init(&simnet.Context{ID: id, Degree: degree, NumNodes: 10, RNG: rng.New(uint64(id))})
	return nd
}

func TestNodeInitAnnouncesItself(t *testing.T) {
	nd := newTestNode(5, 3, 2)
	out := nd.flush()
	if len(out) != 3 {
		t.Fatalf("initial flush sent %d messages, want 3 announces", len(out))
	}
	for _, pm := range out {
		m, err := decode(pm.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.typ != msgAnnounce || m.a != 5 || m.b != 0 {
			t.Fatalf("unexpected initial message %+v", m)
		}
	}
}

func TestNodeAdoptsLargerRootOnly(t *testing.T) {
	nd := newTestNode(5, 3, 2)
	nd.flush()
	// Smaller root: reject.
	nd.handle(0, message{typ: msgAnnounce, a: 3, b: 0})
	if nd.root != 5 {
		t.Fatalf("adopted smaller root %d", nd.root)
	}
	out := nd.flush()
	if len(out) != 1 {
		t.Fatalf("want 1 reject, got %d messages", len(out))
	}
	m, _ := decode(out[0].Payload)
	if m.typ != msgReject || m.a != 3 || m.b != 5 {
		t.Fatalf("reject = %+v, want root 3 with our root 5", m)
	}
	// Larger root: adopt, accept toward the parent, announce elsewhere.
	nd.handle(1, message{typ: msgAnnounce, a: 9, b: 2})
	if nd.root != 9 || nd.dist != 3 || nd.parentPort != 1 {
		t.Fatalf("adoption state root=%d dist=%d parent=%d", nd.root, nd.dist, nd.parentPort)
	}
	out = nd.flush()
	seenAccept := false
	announces := 0
	for _, pm := range out {
		m, _ := decode(pm.Payload)
		switch m.typ {
		case msgAccept:
			seenAccept = true
			if pm.Port != 1 || m.a != 9 {
				t.Fatalf("accept on port %d for root %d", pm.Port, m.a)
			}
		case msgAnnounce:
			announces++
			if m.a != 9 || m.b != 3 {
				t.Fatalf("announce %+v, want root 9 dist 3", m)
			}
		}
	}
	if !seenAccept || announces != 2 {
		t.Fatalf("accept=%v announces=%d, want accept + 2 announces", seenAccept, announces)
	}
}

func TestNodeStaleMessagesDropped(t *testing.T) {
	nd := newTestNode(5, 2, 2)
	nd.flush() // drain initial announces for root 5
	// Queue a COMPLETE for root 5, then adopt root 9: the stale COMPLETE
	// must never hit the wire.
	nd.enqueue(0, message{typ: msgComplete, a: 5, b: 1})
	nd.handle(1, message{typ: msgAnnounce, a: 9, b: 0})
	for i := 0; i < 5; i++ {
		for _, pm := range nd.flush() {
			m, _ := decode(pm.Payload)
			if m.typ == msgComplete && m.a == 5 {
				t.Fatal("stale complete for superseded root was sent")
			}
		}
	}
}

func TestNodeBiggerRootEvidencePropagates(t *testing.T) {
	// A reject carrying a larger current root sets sawBigger; the
	// completion echo then carries the evidence bit.
	nd := newTestNode(5, 1, 2)
	nd.flush()
	nd.handle(0, message{typ: msgReject, a: 5, b: 7})
	if !nd.sawBigger {
		t.Fatal("bigger-root evidence not recorded")
	}
	// With pending resolved and no children, a non-root would now complete;
	// this node is its own root, so it must NOT start the pipeline.
	nd.step()
	if nd.started {
		t.Fatal("non-maximal root started the pipeline")
	}
}

func TestNodeBenignRejectDoesNotBlockRoot(t *testing.T) {
	// Same-root rejects (cross edges within the tree) carry b == a and must
	// not count as bigger-root evidence.
	nd := newTestNode(9, 1, 2)
	nd.flush()
	nd.handle(0, message{typ: msgReject, a: 9, b: 9})
	if nd.sawBigger {
		t.Fatal("benign reject recorded as bigger-root evidence")
	}
	nd.step()
	if !nd.started || !nd.treeDone {
		t.Fatal("maximal root with clean echoes did not start")
	}
	if nd.treeSize != 1 {
		t.Fatalf("tree size %d, want 1", nd.treeSize)
	}
}

func TestNodeCountWave(t *testing.T) {
	// A node with two children: counts arrive, c(v) = (1+c1+c2) mod τ.
	nd := newTestNode(5, 3, 4)
	nd.flush()
	// Become a child of port 0 for root 9, with children on ports 1,2.
	nd.handle(0, message{typ: msgAnnounce, a: 9, b: 0})
	nd.flush()
	nd.handle(1, message{typ: msgAccept, a: 9})
	nd.handle(2, message{typ: msgAccept, a: 9})
	nd.handle(1, message{typ: msgComplete, a: 9, b: 3})
	nd.handle(2, message{typ: msgComplete, a: 9, b: 2})
	nd.step() // sends its own COMPLETE(size=6)
	found := false
	for _, pm := range nd.flush() {
		m, _ := decode(pm.Payload)
		if m.typ == msgComplete {
			found = true
			if m.a != 9 || m.b&completeSizeMask != 6 {
				t.Fatalf("complete %+v, want root 9 size 6", m)
			}
		}
	}
	if !found {
		t.Fatal("no completion echo sent")
	}
	// Start arrives with τ=4, T=1; children report counts 3 and 6.
	nd.handle(0, message{typ: msgStart, a: 4, b: 1})
	nd.handle(1, message{typ: msgCount, a: 3})
	nd.handle(2, message{typ: msgCount, a: 6})
	nd.step()
	if !nd.haveCount {
		t.Fatal("count not computed")
	}
	if nd.cSelf != (1+3+6)%4 {
		t.Fatalf("c(v) = %d, want %d", nd.cSelf, (1+3+6)%4)
	}
}

func TestNodeInvalidStartParams(t *testing.T) {
	nd := newTestNode(5, 1, 0)
	nd.flush()
	nd.handle(0, message{typ: msgAnnounce, a: 9, b: 0})
	nd.flush()
	nd.handle(0, message{typ: msgStart, a: 0, b: 0})
	if nd.err == nil || !strings.Contains(nd.err.Error(), "invalid τ") {
		t.Fatalf("invalid τ not rejected: %v", nd.err)
	}
}

func TestNodeSolverFailureSurfaces(t *testing.T) {
	a := newArena(graph.New(1, "single"))
	a.cfg = nodeConfig{mode: ModePackagingOnly}
	nd := &a.nodes[0]
	nd.tokens = []uint64{1}
	nd.Init(&simnet.Context{ID: 9, Degree: 0, NumNodes: 1, RNG: rng.New(1)})
	nd.step() // lone root completes; no params and no solver
	if nd.err == nil || !strings.Contains(nd.err.Error(), "no parameters") {
		t.Fatalf("missing solver not surfaced: %v", nd.err)
	}
}

func TestHasCollisionPackage(t *testing.T) {
	if hasCollision([]uint64{1, 2, 3}) {
		t.Error("distinct package flagged")
	}
	if !hasCollision([]uint64{4, 5, 4}) {
		t.Error("colliding package missed")
	}
	if hasCollision(nil) {
		t.Error("empty package flagged")
	}
	// Packages above 32 samples take the sorted-copy path, which must not
	// reorder the package itself.
	big := make([]uint64, 40)
	for i := range big {
		big[i] = uint64(1000 - 7*i)
	}
	if hasCollision(big) {
		t.Error("distinct 40-sample package flagged")
	}
	big[39] = big[3]
	if !hasCollision(big) {
		t.Error("colliding 40-sample package missed")
	}
	if big[0] != 1000 || big[39] != big[3] {
		t.Error("collision check reordered the package")
	}
}
