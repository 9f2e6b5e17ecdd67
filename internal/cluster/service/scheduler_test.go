package service

import "testing"

// TestSchedulerFairTurns drives the scheduler's turns by hand — no
// workers, no wall clock — with sessions offering skewed loads: after
// each of its turns, session i offers load[i] more frames (as many as its
// queue has room for). Every session must get one turn per round of the
// ring, no turn may serve more than a quantum, and the sessions that stay
// backlogged must be served frames within a factor of two of each other.
func TestSchedulerFairTurns(t *testing.T) {
	const quantum, depth, rounds = 4, 64, 50
	s := newScheduler(Config{Quantum: quantum, QueueDepth: depth})
	load := []int{1, 3, quantum, 9, 20, depth}
	sessions := make([]*session, len(load))
	index := map[*session]int{}
	offer := func(i int) {
		sess := sessions[i]
		for n := 0; n < load[i] && len(sess.q.items) < depth; n++ {
			if !s.offer(sess, nil, nil, []byte{byte(i)}) {
				t.Fatalf("session %d: offer refused", i)
			}
		}
	}
	for i := range sessions {
		sessions[i] = &session{id: uint32(i + 1)}
		index[sessions[i]] = i
		offer(i)
	}

	served := make([]int, len(load))
	turns := make([]int, len(load))
	var batch []frameItem
	for turn := 0; turn < rounds*len(load); turn++ {
		s.mu.Lock()
		if len(s.ring) == 0 {
			s.mu.Unlock()
			t.Fatalf("turn %d: ring empty with every session offering", turn)
		}
		var sess *session
		sess, batch = s.takeLocked(batch[:0])
		i := index[sess]
		for _, it := range batch {
			if it.body[0] != byte(i) {
				t.Fatalf("turn %d: session %d served session %d's frame", turn, i, it.body[0])
			}
		}
		if len(batch) > quantum {
			t.Fatalf("turn %d: session %d served %d frames, quantum %d", turn, i, len(batch), quantum)
		}
		served[i] += len(batch)
		turns[i]++
		s.releaseLocked(sess, batch)
		s.mu.Unlock()
		offer(i)
	}

	for i, n := range turns {
		if n != rounds {
			t.Errorf("session %d (load %d) got %d turns in %d rounds", i, load[i], n, rounds)
		}
	}
	lo, hi := -1, -1
	for i, n := range served {
		if load[i] < quantum {
			continue // not backlogged: it is served all it offers
		}
		if lo < 0 || n < served[lo] {
			lo = i
		}
		if hi < 0 || n > served[hi] {
			hi = i
		}
	}
	if served[hi] > 2*served[lo] {
		t.Fatalf("backlogged sessions served %v frames: max/min %d/%d exceeds 2", served, served[hi], served[lo])
	}
	for i, n := range served {
		if load[i] < quantum && n != load[i]*rounds {
			t.Errorf("session %d offered %d frames per turn, served %d of %d", i, load[i], n, load[i]*rounds)
		}
	}
}
