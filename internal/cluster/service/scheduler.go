package service

import (
	"net"
	"sync"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
)

// The scheduler decouples reading frames from folding them. Each session
// owns a bounded FIFO of raw frame bodies; reader goroutines offer into
// it (blocking when their session's queue is full — backpressure is per
// session, never cross-tenant), and a fixed worker pool serves the
// sessions round-robin, draining at most one quantum per turn before the
// session goes to the back of the ring. Two invariants carry the
// correctness argument:
//
//   - One worker per session at a time. A session is either idle, queued
//     in the ring, or owned by exactly one draining worker — never in
//     two workers at once — so frames from one connection fold in the
//     order they arrived, which Done-after-votes ordering requires.
//   - Fairness is structural, not probabilistic. A hot session re-enters
//     the ring behind every session that was already waiting, so k
//     sessions with pending work each get every k-th quantum regardless
//     of offered load.
//
// All scheduler state — ring, per-session queues, lifecycle flags —
// lives under one mutex, with two condition variables (work: the ring
// has an entry; room: some queue has capacity again). Frame decoding and
// folding happen strictly outside the lock.

// frameItem is one queued frame: the raw body (owned copy — the reader's
// buffer is reused) plus the peer and connection it arrived on.
type frameItem struct {
	peer *cluster.Peer
	conn net.Conn
	body []byte
}

// Session queue states.
const (
	qIdle     = iota // empty or unserved, not in the ring
	qRinged          // in the ring, awaiting a worker
	qDraining        // owned by exactly one worker
)

// sessQueue is one session's inbound frame queue; all fields except the
// metric handles are guarded by the scheduler mutex.
type sessQueue struct {
	state int
	dead  bool        // session finished: drop everything, admit nothing
	items []frameItem // FIFO; head at index 0
	free  [][]byte    // recycled body buffers

	depth  *obs.Gauge   // svc.queue_depth;session=<slot>
	frames *obs.Counter // svc.frames;session=<slot>
}

type scheduler struct {
	quantum  int
	depthCap int

	mu      sync.Mutex
	work    *sync.Cond // ring gained an entry, or stopping
	room    *sync.Cond // a queue drained below cap, or a session died
	ring    []*session // sessions in state qRinged, FIFO
	stopped bool

	wg sync.WaitGroup
}

func newScheduler(cfg Config) *scheduler {
	s := &scheduler{quantum: cfg.Quantum, depthCap: cfg.QueueDepth}
	if s.quantum <= 0 {
		s.quantum = DefaultQuantum
	}
	if s.depthCap <= 0 {
		s.depthCap = DefaultQueueDepth
	}
	s.work = sync.NewCond(&s.mu)
	s.room = sync.NewCond(&s.mu)
	return s
}

func (s *scheduler) start(workers int) {
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// offer queues one frame body for sess, copying it out of the reader's
// reused buffer. It blocks while the session's queue is full (per-session
// backpressure) and reports false when the session is finished or the
// scheduler stopped — the caller should close the connection.
func (s *scheduler) offer(sess *session, peer *cluster.Peer, conn net.Conn, body []byte) bool {
	s.mu.Lock()
	q := &sess.q
	for len(q.items) >= s.depthCap && !q.dead && !s.stopped {
		s.room.Wait()
	}
	if q.dead || s.stopped {
		s.mu.Unlock()
		return false
	}
	var buf []byte
	if n := len(q.free); n > 0 {
		buf = q.free[n-1][:0]
		q.free = q.free[:n-1]
	}
	q.items = append(q.items, frameItem{peer: peer, conn: conn, body: append(buf, body...)})
	q.depth.Set(float64(len(q.items)))
	q.frames.Inc()
	if q.state == qIdle {
		q.state = qRinged
		s.ring = append(s.ring, sess)
		s.work.Signal()
	}
	s.mu.Unlock()
	return true
}

// worker serves ringed sessions until shutdown: pop, drain one quantum,
// fold outside the lock, release.
func (s *scheduler) worker() {
	defer s.wg.Done()
	var sc wire.DecodeScratch
	batch := make([]frameItem, 0, s.quantum)
	for {
		s.mu.Lock()
		for len(s.ring) == 0 && !s.stopped {
			s.work.Wait()
		}
		if len(s.ring) == 0 { // stopped, ring fully drained
			s.mu.Unlock()
			return
		}
		var sess *session
		sess, batch = s.takeLocked(batch[:0])
		s.mu.Unlock()

		for i := range batch {
			s.apply(sess, &batch[i], &sc)
		}

		s.mu.Lock()
		s.releaseLocked(sess, batch)
		s.mu.Unlock()
	}
}

// takeLocked is one turn's first half: it pops the session at the front
// of the (non-empty) ring, hands it to the caller in state qDraining, and
// moves at most one quantum of its frames, oldest first, into batch.
// s.mu is held.
func (s *scheduler) takeLocked(batch []frameItem) (*session, []frameItem) {
	sess := s.ring[0]
	s.ring = s.ring[:copy(s.ring, s.ring[1:])]
	q := &sess.q
	q.state = qDraining
	n := min(len(q.items), s.quantum)
	batch = append(batch, q.items[:n]...)
	rest := copy(q.items, q.items[n:])
	for i := rest; i < len(q.items); i++ {
		q.items[i] = frameItem{} // release body references to the free list's benefit
	}
	q.items = q.items[:rest]
	q.depth.Set(float64(rest))
	s.room.Broadcast()
	return sess, batch
}

// releaseLocked is the turn's second half, once batch is folded: it
// recycles the frame bodies and, if sess still has frames queued, puts
// it back at the end of the ring, behind every session already waiting.
// s.mu is held.
func (s *scheduler) releaseLocked(sess *session, batch []frameItem) {
	q := &sess.q
	for i := range batch {
		if len(q.free) < s.depthCap {
			q.free = append(q.free, batch[i].body[:0])
		}
		batch[i] = frameItem{}
	}
	switch {
	case q.dead:
		q.items = nil
		q.state = qIdle
	case len(q.items) > 0:
		q.state = qRinged
		s.ring = append(s.ring, sess)
		s.work.Signal()
	default:
		q.state = qIdle
	}
}

// apply decodes and folds one frame through Peer.Apply, the dispatch the
// solo referee's handler drives too: a protocol violation — a body that
// does not decode included — counts one bad frame and terminates the
// offending connection. The session itself keeps running on its other
// peers.
func (s *scheduler) apply(sess *session, it *frameItem, sc *wire.DecodeScratch) {
	f, tc, _, err := wire.DecodeBodySession(it.body, sc)
	if err != nil {
		it.peer.Fail(err)
		it.conn.Close()
		return
	}
	if _, err := it.peer.Apply(f, tc, len(it.body)+4); err != nil { // +4: the length prefix
		it.conn.Close()
	}
}

// kill marks sess finished: pending frames drop, blocked offers return
// false, and workers skip it. Safe to call repeatedly and concurrently
// with a draining worker — the drain finishes its current batch (folds
// into a referee that is already closed, which no-ops) and then parks
// the queue.
func (s *scheduler) kill(sess *session) {
	s.mu.Lock()
	sess.q.dead = true
	sess.q.items = nil
	sess.q.free = nil
	s.room.Broadcast()
	s.mu.Unlock()
}

// shutdown stops the workers after the ring drains and blocks until they
// exit. Offers racing shutdown either queue (and fold) or return false.
func (s *scheduler) shutdown() {
	s.mu.Lock()
	s.stopped = true
	s.work.Broadcast()
	s.room.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
