package congest

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
)

// goldenTopologies is the traffic pin's topology matrix at k ≈ 200–400.
func goldenTopologies() []*graph.Graph {
	return []*graph.Graph{
		graph.NewLine(300),
		graph.NewRing(320),
		graph.NewStar(250),
		graph.NewGrid(15, 20),
		graph.NewBalancedTree(364, 3),
		graph.NewRandomConnected(400, 0.015, 21),
	}
}

// goldenTraffic records, per run, the simulator's accounting and the
// root's outcome: Stats{Rounds, Messages, Bytes, MaxMessageBytes} then
// Rejects, Virtuals, Root and Discarded. For packaging runs "vir" is the
// number of packages. The values were recorded with the map-based node
// state machine; any node rewrite must reproduce them exactly.
var goldenTraffic = map[string]string{
	"grid(15x20)/far":               "rounds=176 msgs=23798 bytes=211790 max=9 rej=9 vir=60 root=299 disc=0 trace=c72dc7a0ce785bbf",
	"grid(15x20)/multi":             "rounds=176 msgs=23798 bytes=211790 max=9 rej=3 vir=120 root=299 disc=0",
	"grid(15x20)/packaging":         "rounds=143 msgs=23497 bytes=209081 max=9 rej=0 vir=42 root=299 disc=6 trace=4cdbe42cd0d88609",
	"grid(15x20)/uniform":           "rounds=176 msgs=23798 bytes=211790 max=9 rej=1 vir=60 root=299 disc=0 trace=8f7809c818e1df0d",
	"grid(15x20)/unknownk":          "rounds=173 msgs=23348 bytes=207740 max=9 rej=1 vir=150 root=299 disc=0",
	"line(300)/far":                 "rounds=1504 msgs=92693 bytes=831845 max=9 rej=4 vir=60 root=299 disc=0 trace=ebeac0fc44facd7b",
	"line(300)/multi":               "rounds=1504 msgs=92693 bytes=831845 max=9 rej=7 vir=120 root=299 disc=0",
	"line(300)/packaging":           "rounds=1205 msgs=92392 bytes=829136 max=9 rej=0 vir=42 root=299 disc=6 trace=fba81fd41879a5c4",
	"line(300)/uniform":             "rounds=1504 msgs=92693 bytes=831845 max=9 rej=1 vir=60 root=299 disc=0 trace=372e7aa149578cc1",
	"line(300)/unknownk":            "rounds=1501 msgs=92243 bytes=827795 max=9 rej=0 vir=150 root=299 disc=0",
	"random(400,p=0.015)/far":       "rounds=36 msgs=21619 bytes=191379 max=9 rej=6 vir=80 root=399 disc=0 trace=996372d76f661bff",
	"random(400,p=0.015)/multi":     "rounds=36 msgs=21939 bytes=194259 max=9 rej=4 vir=160 root=399 disc=0",
	"random(400,p=0.015)/packaging": "rounds=31 msgs=20912 bytes=185016 max=9 rej=0 vir=57 root=399 disc=1 trace=c12ed4ad8135f674",
	"random(400,p=0.015)/uniform":   "rounds=36 msgs=21619 bytes=191379 max=9 rej=5 vir=80 root=399 disc=0 trace=a2bcd96adf477b78",
	"random(400,p=0.015)/unknownk":  "rounds=33 msgs=21363 bytes=189075 max=9 rej=0 vir=200 root=399 disc=0",
	"ring(320)/far":                 "rounds=809 msgs=54715 bytes=489883 max=9 rej=4 vir=64 root=319 disc=0 trace=ed10b6235725d486",
	"ring(320)/multi":               "rounds=809 msgs=54715 bytes=489883 max=9 rej=7 vir=128 root=319 disc=0",
	"ring(320)/packaging":           "rounds=650 msgs=54397 bytes=487021 max=9 rej=0 vir=45 root=319 disc=5 trace=d7fb624f40417a4a",
	"ring(320)/uniform":             "rounds=809 msgs=54715 bytes=489883 max=9 rej=1 vir=64 root=319 disc=0 trace=ab48a3e975182f06",
	"ring(320)/unknownk":            "rounds=806 msgs=54235 bytes=485563 max=9 rej=0 vir=160 root=319 disc=0",
	"star(250)/far":                 "rounds=18 msgs=2990 bytes=24918 max=9 rej=4 vir=50 root=249 disc=0 trace=1c9055c2fc48f363",
	"star(250)/multi":               "rounds=17 msgs=3237 bytes=27141 max=9 rej=5 vir=100 root=249 disc=0",
	"star(250)/packaging":           "rounds=15 msgs=2492 bytes=20436 max=9 rej=0 vir=35 root=249 disc=5 trace=69e5399d9ea8d4fc",
	"star(250)/uniform":             "rounds=18 msgs=2990 bytes=24918 max=9 rej=3 vir=50 root=249 disc=0 trace=ac0e106d2a5e3610",
	"star(250)/unknownk":            "rounds=15 msgs=2987 bytes=24891 max=9 rej=0 vir=125 root=249 disc=0",
	"tree(364,arity=3)/far":         "rounds=59 msgs=7305 bytes=62841 max=9 rej=9 vir=72 root=363 disc=4 trace=e32b0932839292ef",
	"tree(364,arity=3)/multi":       "rounds=58 msgs=7413 bytes=63813 max=9 rej=7 vir=145 root=363 disc=3",
	"tree(364,arity=3)/packaging":   "rounds=50 msgs=6705 bytes=57441 max=9 rej=0 vir=52 root=363 disc=0 trace=6dd44e1d30b842fb",
	"tree(364,arity=3)/uniform":     "rounds=59 msgs=7305 bytes=62841 max=9 rej=3 vir=72 root=363 disc=4 trace=ad5b3463732d389a",
	"tree(364,arity=3)/unknownk":    "rounds=56 msgs=6925 bytes=59421 max=9 rej=0 vir=182 root=363 disc=0",
}

// traceHash folds every delivered message — round, endpoints and bytes, in
// delivery order — and every halt into one FNV-1a digest, so the pin also
// catches a rewrite that keeps the totals but reorders traffic.
type traceHash struct{ h hash.Hash64 }

func (t *traceHash) OnRoundStart(round, active int) { fmt.Fprintf(t.h, "r%d/%d;", round, active) }
func (t *traceHash) OnMessage(round, from, to int, payload []byte) {
	fmt.Fprintf(t.h, "m%d>%d:%x;", from, to, payload)
}
func (t *traceHash) OnHalt(round, node int) { fmt.Fprintf(t.h, "h%d;", node) }

// trafficLine renders one run's pinned values; tr is nil for the runs
// whose entry points take no tracer.
func trafficLine(s simnet.Stats, rej, vir, root, disc int, tr *traceHash) string {
	line := fmt.Sprintf("rounds=%d msgs=%d bytes=%d max=%d rej=%d vir=%d root=%d disc=%d",
		s.Rounds, s.Messages, s.Bytes, s.MaxMessageBytes, rej, vir, root, disc)
	if tr != nil {
		line += fmt.Sprintf(" trace=%016x", tr.h.Sum64())
	}
	return line
}

// TestGoldenTraffic pins the exact traffic of seeded uniformity and
// packaging runs. The engine-equivalence tests run one node program on
// both engines, so they cannot see a change to the node itself; this pin
// catches any node rewrite that sends, drops or reorders a message.
func TestGoldenTraffic(t *testing.T) {
	// τ = 5 over a 256-value domain makes rejecting packages common, so the
	// pinned Rejects exercise the collision check; the unknown-k run derives
	// its own (τ, T) from the discovered size.
	const n = 1 << 8
	p := Params{Tau: 5, T: 3}
	draw := func(seed uint64) []uint64 {
		r := rng.New(seed)
		tokens := make([]uint64, 0, 2*400)
		for i := 0; i < cap(tokens); i++ {
			tokens = append(tokens, r.Uint64n(n))
		}
		return tokens
	}
	uniformity := func(res UniformityResult, tr *traceHash) string {
		return trafficLine(res.Stats, res.Rejects, res.Virtuals, res.Root, res.Discarded, tr)
	}
	for _, g := range goldenTopologies() {
		k := g.N()
		runs := []struct {
			kind string
			run  func(tr *traceHash) (string, error)
		}{
			{"uniform", func(tr *traceHash) (string, error) {
				res, err := RunUniformityOnDistributionTraced(g, dist.NewUniform(n), p, rng.New(31), tr)
				return uniformity(res, tr), err
			}},
			{"far", func(tr *traceHash) (string, error) {
				res, err := RunUniformityOnDistributionTraced(g, dist.NewTwoBump(n, 1.0, 5), p, rng.New(32), tr)
				return uniformity(res, tr), err
			}},
			{"packaging", func(tr *traceHash) (string, error) {
				res, err := RunTokenPackagingTraced(g, draw(33)[:k], 7, 34, tr)
				return trafficLine(res.Stats, 0, len(res.Packages), res.Root, res.Discarded, tr), err
			}},
			{"multi", func(*traceHash) (string, error) {
				flat := draw(35)
				per := make([][]uint64, k)
				for v := range per {
					per[v] = flat[2*v : 2*v+2]
				}
				res, err := RunUniformityMulti(g, per, p, 36)
				return uniformity(res, nil), err
			}},
			{"unknownk", func(*traceHash) (string, error) {
				res, err := RunUniformityUnknownK(g, draw(37)[:k], 1<<10, 1.0, 38)
				return uniformity(res, nil), err
			}},
		}
		for _, c := range runs {
			key := g.Name() + "/" + c.kind
			got, err := c.run(&traceHash{h: fnv.New64a()})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if want := goldenTraffic[key]; got != want {
				t.Errorf("%s traffic changed:\n got  %q: %q,\n want %q", key, key, got, want)
			}
		}
	}
}
