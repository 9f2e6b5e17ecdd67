// Package rng is a minimal stand-in for internal/rng in sharedrng
// fixtures: the analyzer recognizes the RNG type by name and the "rng"
// path segment, so this stub exercises the same matching as the real tree.
package rng

// RNG is a stub deterministic generator.
type RNG struct{ s uint64 }

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{s: seed} }

// At returns the index-th child generator of base.
func At(base, index uint64) *RNG { return &RNG{s: base ^ (index + 1)} }

// Uint64 returns the next value.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return r.s
}

// SeedAt reseeds the generator in place to the index-th child stream of
// base, the allocation-free variant of At used by chunked trial pools.
func (r *RNG) SeedAt(base, index uint64) { r.s = base ^ (index + 1) }

// Stepper is a stub register copy of a generator's state.
type Stepper struct{ s uint64 }

// Load returns a register copy of r's state.
func (r *RNG) Load() Stepper { return Stepper{s: r.s} }

// Store writes st back into r.
func (r *RNG) Store(st Stepper) { r.s = st.s }

// Uint64 returns the next value.
func (st *Stepper) Uint64() uint64 {
	st.s += 0x9e3779b97f4a7c15
	return st.s
}
