// Package good derives per-worker generators inside each goroutine — the
// pattern that keeps results identical at any worker count.
package good

import (
	"sync/atomic"

	"rng"
)

// Derive gives each worker its own indexed child generator.
func Derive(base uint64) {
	done := make(chan struct{}, 4)
	for w := uint64(0); w < 4; w++ {
		w := w
		go func() {
			g := rng.At(base, w)
			_ = g.Uint64()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

// Sequential use of a generator never crosses a goroutine.
func Sequential(base uint64) uint64 {
	g := rng.New(base)
	return g.Uint64()
}

// Suppressed demonstrates a justified handoff: ownership transfers and the
// parent never touches g again.
func Suppressed() {
	g := rng.New(3)
	done := make(chan struct{})
	go func() {
		_ = g.Uint64() //unifvet:allow sharedrng fixture goroutine is the sole user after handoff
		close(done)
	}()
	<-done
}

// ChunkedPool is the work-stealing trial-pool shape used by the parallel
// estimators: workers claim chunks of trial indices from a shared atomic
// counter and reseed a goroutine-local generator by index. No *RNG value
// crosses a goroutine boundary, so the analyzer must stay silent.
func ChunkedPool(base uint64, trials int) uint64 {
	var next int64
	results := make(chan uint64, 4)
	for w := 0; w < 4; w++ {
		go func() {
			gen := rng.New(0)
			var local uint64
			for {
				lo := int(atomic.AddInt64(&next, 8)) - 8
				if lo >= trials {
					break
				}
				hi := lo + 8
				if hi > trials {
					hi = trials
				}
				for i := lo; i < hi; i++ {
					gen.SeedAt(base, uint64(i))
					local += gen.Uint64()
				}
			}
			results <- local
		}()
	}
	var total uint64
	for i := 0; i < 4; i++ {
		total += <-results
	}
	return total
}

// StepperInside loads a register copy of a generator the goroutine derived
// itself, and stores it back before the goroutine ends.
func StepperInside(base uint64) uint64 {
	out := make(chan uint64, 1)
	go func() {
		g := rng.At(base, 0)
		st := g.Load()
		v := st.Uint64()
		g.Store(st)
		out <- v
	}()
	return <-out
}
