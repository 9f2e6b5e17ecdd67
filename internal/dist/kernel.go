package dist

import (
	"math"
	"math/bits"

	"github.com/unifdist/unifdist/internal/rng"
)

// This file holds the hot-path sampling kernels. Every experiment table is a
// Monte-Carlo sweep whose inner loop draws millions of samples; going through
// Distribution.Sample costs an interface dispatch per draw. Distributions
// that matter in the experiment hot path (Uniform, TwoBump, Histogram)
// implement BatchSampler with a concrete tight loop instead, and the generic
// SampleInto entry point dispatches once per batch rather than once per
// sample.
//
// Every kernel consumes the generator exactly as the scalar Sample method
// does, so for a fixed seed the sample stream is identical whichever path
// runs — batch sampling is a pure speedup, never a behavioural change. The
// kernels step a register copy of the generator (rng.Stepper), stored back
// once per block, and inline the common path of each bounded draw; the rare
// rejection branch of Lemire's method is the only call in the loop.

// BatchSampler is implemented by distributions that can fill a buffer of
// i.i.d. samples without per-sample interface dispatch. Implementations must
// draw from r exactly as len(dst) successive Sample calls would.
type BatchSampler interface {
	// SampleInto fills dst with i.i.d. samples using r.
	SampleInto(dst []int, r *rng.RNG)
}

// SampleInto fills buf with i.i.d. samples from d, avoiding both the
// allocation of SampleN and — when d implements BatchSampler — the
// per-sample interface dispatch of the generic loop.
func SampleInto(d Distribution, buf []int, r *rng.RNG) {
	if b, ok := d.(BatchSampler); ok {
		b.SampleInto(buf, r)
		return
	}
	for i := range buf {
		buf[i] = d.Sample(r)
	}
}

// SampleInto implements BatchSampler: one bounded draw per sample.
func (u Uniform) SampleInto(dst []int, r *rng.RNG) {
	n := uint64(u.n)
	st := r.Load()
	for i := range dst {
		hi, lo := bits.Mul64(st.Uint64(), n)
		if lo < n {
			hi = st.Uint64nRetry(n, hi, lo)
		}
		dst[i] = int(hi)
	}
	r.Store(st)
}

// SampleInto implements BatchSampler with the pair-then-heavy draw of Sample
// and no data-dependent branch. Sample picks the heavy element when
// Float64() = m·2^-53 < (1+ε)/2, m the draw's top 53 bits; both sides are
// exact in float64, so that is the integer test m < ⌈(1+ε)/2·2^53⌉, whose
// borrow bit is the pick. The heavy element is the pair's first exactly when
// the pick equals the pair's sign bit, so the element is 2·pair + (pick ^
// sign).
func (t *TwoBump) SampleInto(dst []int, r *rng.RNG) {
	half := uint64(t.n / 2)
	heavyCut := uint64(math.Ceil((1 + t.eps) / 2 * 0x1p53))
	sign := t.sign
	st := r.Load()
	for i := range dst {
		pair, lo := bits.Mul64(st.Uint64(), half)
		if lo < half {
			pair = st.Uint64nRetry(half, pair, lo)
		}
		heavy := (st.Uint64()>>11 - heavyCut) >> 63
		dst[i] = int(2*pair + (heavy ^ uint64(sign[pair])))
	}
	r.Store(st)
}

// SampleInto implements BatchSampler: the alias-table lookup of Sample in a
// concrete loop.
func (h *Histogram) SampleInto(dst []int, r *rng.RNG) {
	n := uint64(len(h.p))
	cut, alias := h.cut, h.alias
	st := r.Load()
	for i := range dst {
		j, lo := bits.Mul64(st.Uint64(), n)
		if lo < n {
			j = st.Uint64nRetry(n, j, lo)
		}
		v := alias[j]
		if float64(st.Uint64()>>11)*0x1p-53 < cut[j] {
			v = int(j)
		}
		dst[i] = v
	}
	r.Store(st)
}
