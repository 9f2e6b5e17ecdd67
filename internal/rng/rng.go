// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the library.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every trial, every simulated network node, and every sampler must be
// seedable so that experiment tables can be regenerated bit-for-bit. The
// standard library's math/rand/v2 generators are excellent, but they do not
// offer a documented, stable "split" operation for deriving independent
// child generators; this package does.
//
// The generator is xoshiro256++ seeded through splitmix64, the construction
// recommended by the xoshiro authors. Splitting derives a child seed by
// hashing the parent's stream with splitmix64, which keeps parent and child
// streams statistically independent for simulation purposes.
package rng

import "math/bits"

// RNG is a deterministic xoshiro256++ pseudo-random generator.
//
// The zero value is not usable; construct with New. RNG is not safe for
// concurrent use; give each goroutine its own generator via Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Split returns a new generator whose stream is independent of r's future
// output. Splitting advances r.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// Seed re-initializes r in place from seed via splitmix64, exactly as New
// does. It lets hot loops re-seed one generator instead of allocating a
// fresh RNG per work item.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro256++ requires a nonzero state; splitmix64 output is zero for
	// all four words with probability 2^-256, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// SeedAt re-initializes r in place as the index-th child stream of base:
// the seed is splitmix64-hashed from base and index, so streams for
// different indices are statistically independent and any (base, index)
// pair names the same stream on every call. This is the indexed analogue of
// Split for deterministic parallel fan-out — worker goroutines derive trial
// i's generator from (base, i) with no shared state and no pre-split array.
func (r *RNG) SeedAt(base, index uint64) {
	_, h := splitmix64(base + (index+1)*0x9e3779b97f4a7c15)
	r.Seed(h)
}

// At returns the index-th child generator of base; see SeedAt.
func At(base, index uint64) *RNG {
	var r RNG
	r.SeedAt(base, index)
	return &r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Stepper is a register copy of an RNG's state, for sampling kernels that
// draw a block of values in one call: Load it from an RNG, step it as a
// local — the compiler keeps the four words in registers instead of going
// through the generator's memory on every draw — and Store it back. A
// Stepper draws RNG's stream bit for bit, and it is the same hazard as a
// shared *RNG: a copy handed to another goroutine duplicates the stream.
type Stepper struct {
	s0, s1, s2, s3 uint64
}

// Load returns a register copy of r's state.
func (r *RNG) Load() Stepper {
	return Stepper{r.s[0], r.s[1], r.s[2], r.s[3]}
}

// Store writes st back into r, which continues the stream where st left it.
func (r *RNG) Store(st Stepper) {
	r.s = [4]uint64{st.s0, st.s1, st.s2, st.s3}
}

// Uint64 returns the next 64 bits, exactly as RNG.Uint64 would.
func (st *Stepper) Uint64() uint64 {
	s0, s1 := st.s0, st.s1
	a, b := st.s2^s0, st.s3^s1
	result := bits.RotateLeft64(s0+st.s3, 23) + s0
	*st = Stepper{s0 ^ b, s1 ^ a, a ^ s1<<17, bits.RotateLeft64(b, 45)}
	return result
}

// Uint64nRetry finishes a bounded draw in [0, n) whose first product fell
// below n, consuming the stream exactly as RNG.Uint64n does. A whole
// Uint64n is too large for the compiler to inline, so kernels inline its
// common path and call this only on the rare (probability < n/2^64)
// rejection branch:
//
//	hi, lo := bits.Mul64(st.Uint64(), n)
//	if lo < n {
//		hi = st.Uint64nRetry(n, hi, lo)
//	}
func (st *Stepper) Uint64nRetry(n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(st.Uint64(), n)
	}
	return hi
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63 returns a uniformly distributed non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Uint64n returns a uniformly distributed integer in [0, n) using Lemire's
// nearly-divisionless method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bool returns a uniformly distributed boolean.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniformly distributed permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, as in math/rand.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// splitmix64 advances the splitmix64 state and returns the new state and
// the next output value.
func splitmix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}
