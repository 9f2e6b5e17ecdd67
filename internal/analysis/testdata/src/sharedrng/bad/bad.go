// Package bad shares rng generators across goroutine boundaries.
package bad

import "rng"

// Capture leaks a generator into a goroutine closure.
func Capture() {
	g := rng.New(1)
	done := make(chan struct{})
	go func() {
		_ = g.Uint64() // want "rng.RNG .g. captured by goroutine closure"
		close(done)
	}()
	<-done
}

func worker(g *rng.RNG, done chan<- struct{}) {
	_ = g.Uint64()
	close(done)
}

// Pass hands a generator to a spawned function.
func Pass() {
	g := rng.New(2)
	done := make(chan struct{})
	go worker(g, done) // want "rng.RNG passed into goroutine"
	<-done
}

// CaptureStepper leaks a register copy of a generator into a goroutine
// closure: both sides would draw the same stream.
func CaptureStepper() {
	st := rng.New(3).Load()
	done := make(chan struct{})
	go func() {
		_ = st.Uint64() // want "rng.Stepper .st. captured by goroutine closure"
		close(done)
	}()
	_ = st.Uint64()
	<-done
}

func stepWorker(st rng.Stepper, done chan<- struct{}) {
	_ = st.Uint64()
	close(done)
}

// PassStepper hands a register copy to a spawned function.
func PassStepper() {
	r := rng.New(4)
	done := make(chan struct{})
	go stepWorker(r.Load(), done) // want "rng.Stepper passed into goroutine"
	<-done
}
