package cluster

import (
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/rng"
)

// liveHeapBytes forces a full collection and returns the live heap it
// marked. Two cycles also empty sync.Pool victim caches, so pooled scratch
// freed by earlier tests does not count.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestPipeCloseReleasesDeadlineTimers dials 10k in-memory connections,
// arms the default deadline on both ends as the node (SetDeadline) and
// the sink (SetReadDeadline) do, and closes them. A closed pipe whose
// deadline timer still runs stays reachable until the timer fires, so
// without the release on Close the pairs would outlive this test by 10 s.
func TestPipeCloseReleasesDeadlineTimers(t *testing.T) {
	const pairs = 10000
	for _, serverFirst := range []bool{false, true} {
		name := "client-first"
		if serverFirst {
			name = "server-first"
		}
		t.Run(name, func(t *testing.T) {
			before := liveHeapBytes()
			dialAndClosePipes(t, pairs, serverFirst)
			after := liveHeapBytes()
			if grew := int64(after) - int64(before); grew >= 1<<20 {
				t.Fatalf("%d closed pipe pairs still hold %d KiB of live heap", pairs, grew>>10)
			}
		})
	}
}

// dialAndClosePipes opens n connections through one pipe listener, arms
// DefaultDeadline on both ends, and closes each pair in the given order.
func dialAndClosePipes(t *testing.T, n int, serverFirst bool) {
	t.Helper()
	l := NewPipeListener()
	defer l.Close()
	accepted := make(chan net.Conn)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < n; i++ {
		client, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		server := <-accepted
		end := time.Now().Add(DefaultDeadline)
		if err := client.SetDeadline(end); err != nil {
			t.Fatal(err)
		}
		if err := server.SetReadDeadline(end); err != nil {
			t.Fatal(err)
		}
		if serverFirst {
			server.Close()
			client.Close()
		} else {
			client.Close()
			server.Close()
		}
	}
	l.Close()
	for range accepted {
	}
}

// TestPipeCloseRacesPeerDeadline closes one end while its peer sets
// deadlines concurrently (run it under -race). A deadline set after the
// close must fail on the closed pair rather than arm a timer.
func TestPipeCloseRacesPeerDeadline(t *testing.T) {
	for i := 0; i < 500; i++ {
		a, b := newPipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			end := time.Now().Add(DefaultDeadline)
			b.SetDeadline(end)
			b.SetReadDeadline(end)
			b.SetWriteDeadline(end)
		}()
		go func() {
			defer wg.Done()
			a.Close()
		}()
		wg.Wait()
		if err := b.SetDeadline(time.Now().Add(DefaultDeadline)); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("deadline on a closed pair: err = %v, want io.ErrClosedPipe", err)
		}
		b.Close()
	}
}

// TestComputeFramesBytesBounded pins the node's working memory: 200 nodes
// at n = 2^16 compute their frames from pooled collision scratch, so the
// bytes they allocate stay far below one 256 KiB stamp array per node.
func TestComputeFramesBytesBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	const n, k = 1 << 16, 200
	nw := thresholdNetwork(t, n, k)
	d := dist.NewUniform(n)
	for _, sketch := range []bool{false, true} {
		cfg := Config{Trials: 64, BaseSeed: 5, Sketch: sketch, DomainN: n}
		nodes := make([]*NodeClient, k)
		for i := range nodes {
			nodes[i] = &NodeClient{ID: i, K: k, Tester: nw.Node(i), Config: cfg}
		}
		// Warm the pool so the measurement sees the steady state.
		if _, err := nodes[0].computeFrames(d, trace.Context{}); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, nc := range nodes {
			if _, err := nc.computeFrames(d, trace.Context{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		got := m1.TotalAlloc - m0.TotalAlloc
		stamps := uint64(k) * n * 4 // one uint32 stamp array per node
		if got > stamps/16 {
			t.Fatalf("sketch=%v: %d nodes allocated %d KiB computing frames; one stamp array each would be %d KiB",
				sketch, k, got>>10, stamps>>10)
		}
	}
}

// TestComputeFramesAllocsFlatInTrials pins that a node's allocation count
// does not grow with Trials: the frames slice is its only allocation.
func TestComputeFramesAllocsFlatInTrials(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	const n, k = 1 << 16, 200
	nw := thresholdNetwork(t, n, k)
	var d dist.Distribution = dist.NewUniform(n) // boxed once, as Run receives it
	for _, sketch := range []bool{false, true} {
		for _, trials := range []int{8, 64, 256} {
			nc := &NodeClient{ID: 7, K: k, Tester: nw.Node(7),
				Config: Config{Trials: trials, BaseSeed: 5, Sketch: sketch, DomainN: n}}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := nc.computeFrames(d, trace.Context{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("sketch=%v trials=%d: computeFrames made %.1f allocations, want only the frames slice",
					sketch, trials, allocs)
			}
		}
	}
}

// gateDist is a distribution whose draws park until release is closed,
// counting the draws parked at once.
type gateDist struct {
	dist.Distribution
	release chan struct{}
	parked  atomic.Int32
}

func (g *gateDist) Sample(r *rng.RNG) int {
	select {
	case <-g.release:
	default:
		g.parked.Add(1)
		<-g.release
	}
	return g.Distribution.Sample(r)
}

// TestComputeFramesConcurrencyBounded parks every node in its first draw
// and checks that only nodeComputeSlots nodes get that far: the others
// wait for a slot instead of borrowing (and, with the pool empty,
// allocating) collision scratch of their own.
func TestComputeFramesConcurrencyBounded(t *testing.T) {
	const n, k = 64, 64
	slots := cap(nodeComputeSlots)
	if slots >= k {
		t.Skipf("%d compute slots leave no node waiting among %d", slots, k)
	}
	nw := thresholdNetwork(t, n, k)
	gate := &gateDist{Distribution: dist.NewUniform(n), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func(i int) {
			defer wg.Done()
			nc := &NodeClient{ID: i, K: k, Tester: nw.Node(i), Config: Config{Trials: 2, BaseSeed: 1}}
			if _, err := nc.computeFrames(gate, trace.Context{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for end := time.Now().Add(10 * time.Second); gate.parked.Load() < int32(slots); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			close(gate.release)
			t.Fatalf("only %d of %d slots in use after 10 s", gate.parked.Load(), slots)
		}
	}
	// The slots are full; give the other nodes time to get past the bound
	// if it did not hold.
	time.Sleep(50 * time.Millisecond)
	got := gate.parked.Load()
	close(gate.release)
	wg.Wait()
	if got != int32(slots) {
		t.Fatalf("%d nodes computing at once, want at most %d", got, slots)
	}
}
