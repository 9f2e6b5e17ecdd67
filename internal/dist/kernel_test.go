package dist

import (
	"testing"

	"github.com/unifdist/unifdist/internal/rng"
)

// oneByOne is a Distribution wrapper that hides any BatchSampler
// implementation, forcing the generic per-sample path.
type oneByOne struct{ Distribution }

// kernelDistributions returns the batch-sampling distributions under test.
func kernelDistributions(t testing.TB) []Distribution {
	t.Helper()
	h, err := NewHistogram([]float64{1, 2, 3, 4, 0.5, 7}, "h")
	if err != nil {
		t.Fatal(err)
	}
	return []Distribution{
		NewUniform(97),
		NewTwoBump(64, 0.5, 11),
		h,
		NewZipf(200, 1.1),
	}
}

// TestSampleIntoMatchesScalarStream checks the batch kernels consume the
// generator exactly as repeated Sample calls do: same seed, same stream.
func TestSampleIntoMatchesScalarStream(t *testing.T) {
	for _, d := range kernelDistributions(t) {
		if _, ok := d.(BatchSampler); !ok {
			t.Errorf("%s does not implement BatchSampler", d.Name())
		}
		const s = 1000
		batch := make([]int, s)
		SampleInto(d, batch, rng.New(42))
		scalar := make([]int, s)
		SampleInto(oneByOne{d}, scalar, rng.New(42))
		for i := range batch {
			if batch[i] != scalar[i] {
				t.Fatalf("%s: batch[%d]=%d but scalar[%d]=%d", d.Name(), i, batch[i], i, scalar[i])
			}
		}
		if n := SampleN(d, s, rng.New(42)); n[s-1] != batch[s-1] || n[0] != batch[0] {
			t.Errorf("%s: SampleN diverges from SampleInto", d.Name())
		}
	}
}

// sampleIntoOracle is the reference for the kernels: the loops they
// replaced, stepping the generator through *rng.RNG one call at a time.
// It reports false for a distribution without a kernel.
func sampleIntoOracle(d Distribution, dst []int, r *rng.RNG) bool {
	switch d := d.(type) {
	case Uniform:
		n := uint64(d.n)
		for i := range dst {
			dst[i] = int(r.Uint64n(n))
		}
	case *TwoBump:
		half := uint64(d.n / 2)
		cut := (1 + d.eps) / 2
		for i := range dst {
			pair := int(r.Uint64n(half))
			pickHeavy := r.Float64() < cut
			if pickHeavy == (d.sign[pair] == 1) {
				dst[i] = 2 * pair
			} else {
				dst[i] = 2*pair + 1
			}
		}
	case *Histogram:
		n := uint64(len(d.p))
		for i := range dst {
			j := int(r.Uint64n(n))
			if r.Float64() < d.cut[j] {
				dst[i] = j
			} else {
				dst[i] = d.alias[j]
			}
		}
	default:
		return false
	}
	return true
}

// checkKernel asserts that d's kernel, the oracle loop and repeated scalar
// Sample calls produce the same block from the same seed and leave the
// generator in the same state.
func checkKernel(t *testing.T, d Distribution, block int, seed uint64) {
	t.Helper()
	kr, or, sr := rng.New(seed), rng.New(seed), rng.New(seed)
	kernel, oracle, scalar := make([]int, block), make([]int, block), make([]int, block)
	d.(BatchSampler).SampleInto(kernel, kr)
	if !sampleIntoOracle(d, oracle, or) {
		t.Fatalf("%s: no oracle loop", d.Name())
	}
	for i := range scalar {
		scalar[i] = d.Sample(sr)
	}
	for i := range kernel {
		if kernel[i] != oracle[i] || kernel[i] != scalar[i] {
			t.Fatalf("%s seed %d: sample %d: kernel %d, oracle %d, scalar %d",
				d.Name(), seed, i, kernel[i], oracle[i], scalar[i])
		}
	}
	if *kr != *or || *kr != *sr {
		t.Fatalf("%s seed %d block %d: generator state after the kernel differs", d.Name(), seed, block)
	}
}

// FuzzSampleKernels checks every kernel against its oracle loop and the
// scalar Sample stream, including the generator state left after the
// call, over random domain sizes, distances, block lengths and seeds. The
// seed corpus covers n=2, ε=1, the 51-sample n=2^16 block of a cluster node,
// and a domain whose bounded draw rejects an eighth of the time.
func FuzzSampleKernels(f *testing.F) {
	f.Add(uint64(1), uint64(1<<17), uint16(51), uint8(255))
	f.Add(uint64(2), uint64(4), uint16(64), uint8(255))
	f.Add(uint64(3), uint64(0), uint16(7), uint8(1))
	f.Add(uint64(4), uint64(3<<62), uint16(300), uint8(128))
	f.Add(uint64(5), uint64(97), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed, nRaw uint64, blockRaw uint16, epsRaw uint8) {
		// Uniform takes any n ≥ 1 up to 2^63−1, where Lemire's draw
		// rejects with probability up to ½; TwoBump's sign table bounds
		// its domain, and the histogram's alias table bounds its.
		n := max(1, int(nRaw>>1))
		block := int(blockRaw) % 1024
		eps := float64(int(epsRaw)+1) / 256 // (0, 1], ε=1 at 255
		checkKernel(t, NewUniform(n), block, seed)
		checkKernel(t, NewTwoBump(max(2, n%(1<<18)&^1), eps, seed^0x5bd1e995), block, seed)
		p := make([]float64, 1+n%512)
		r := rng.New(seed)
		for i := range p {
			p[i] = float64(r.Intn(8))
		}
		p[0]++
		checkKernel(t, MustHistogram(p, "fuzz"), block, seed)
	})
}

// TestSampleIntoGenericFallback covers the non-BatchSampler path.
func TestSampleIntoGenericFallback(t *testing.T) {
	d := oneByOne{NewUniform(13)}
	buf := make([]int, 500)
	SampleInto(d, buf, rng.New(3))
	for i, v := range buf {
		if v < 0 || v >= 13 {
			t.Fatalf("sample %d out of range: %d", i, v)
		}
	}
}

// TestSampleIntoRanges checks every kernel stays inside its domain.
func TestSampleIntoRanges(t *testing.T) {
	for _, d := range kernelDistributions(t) {
		buf := make([]int, 2000)
		SampleInto(d, buf, rng.New(7))
		for i, v := range buf {
			if v < 0 || v >= d.N() {
				t.Fatalf("%s: sample %d out of domain: %d", d.Name(), i, v)
			}
		}
	}
}

func BenchmarkSampleScalarUniform(b *testing.B) {
	d := NewUniform(1 << 20)
	buf := make([]int, 1024)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleInto(oneByOne{d}, buf, r)
	}
}
