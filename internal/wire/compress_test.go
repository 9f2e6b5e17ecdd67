package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"testing"
)

// compressBlockRef is the stack-table compressor CompressBlock replaced,
// kept as the oracle for the pooled, generation-offset table: it zeroes a
// fresh table per call, so its output is trivially a function of src
// alone. CompressBlock must match it byte for byte.
func compressBlockRef(src, dst []byte) []byte {
	if len(src) < zMinMatch*2 {
		return nil
	}
	base := len(dst)
	// Positions are stored +1 so the zero value means "empty slot".
	var table [1 << zHashBits]int32
	limit := len(src) - zMinMatch
	anchor, i := 0, 0
	for i <= limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := zHash(v)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || i-cand > zMaxOffset || binary.LittleEndian.Uint32(src[cand:]) != v {
			i++
			continue
		}
		ml := zMinMatch
		for i+ml < len(src) && src[cand+ml] == src[i+ml] {
			ml++
		}
		dst = appendSequence(dst, src[anchor:i], i-cand, ml)
		i += ml
		anchor = i
		if len(dst)-base >= len(src) {
			return nil
		}
	}
	dst = appendSequence(dst, src[anchor:], 0, 0)
	if len(dst)-base >= len(src) {
		return nil
	}
	return dst
}

// TestCompressMatchesRef runs a mixed sequence of blocks through one
// reused table — the pooled path's situation, with stale slots from every
// earlier block — and through a table parked just below the reset base, so
// the sequence crosses a forced generation reset. Every block must encode
// exactly as the fresh-table reference does.
func TestCompressMatchesRef(t *testing.T) {
	lcg := uint32(99)
	var blocks [][]byte
	for n := 0; n < 64; n++ {
		size := 8 + n*37%700
		b := make([]byte, size)
		for i := range b {
			lcg = lcg*1664525 + 1013904223
			// A small alphabet makes matches (and stale-slot hits) common.
			b[i] = byte(lcg>>24) % byte(2+n%9)
		}
		blocks = append(blocks, b)
	}
	blocks = append(blocks, goldenBatchPayload(), bytes.Repeat([]byte("abcdefg-"), 64))
	// Each block twice in a row: the second pass finds the table full of
	// its own hashes from one generation back, as successive batches of a
	// node do.
	for i := len(blocks) - 1; i >= 0; i-- {
		blocks = slices.Insert(blocks, i, blocks[i])
	}

	for _, start := range []int32{0, zResetBase - 2000} {
		tab := &zTable{base: start}
		resets := 0
		for i, b := range blocks {
			before := tab.base
			got := tab.compress(b, []byte("dst"))
			if tab.base < before {
				resets++
			}
			want := compressBlockRef(b, []byte("dst"))
			if !bytes.Equal(got, want) {
				t.Fatalf("base %d, block %d (%d bytes): pooled table diverges from reference:\n got %x\nwant %x",
					start, i, len(b), got, want)
			}
			if !bytes.Equal(CompressBlock(b, nil), compressBlockRef(b, nil)) {
				t.Fatalf("block %d: CompressBlock diverges from reference", i)
			}
		}
		if start != 0 && resets == 0 {
			t.Fatalf("table parked at base %d never reset", start)
		}
	}
}

// goldenBatchPayload is a realistic batch payload: one node's 96 votes in
// trial order.
func goldenBatchPayload() []byte {
	b := VoteBatch{Votes: make([]BatchVote, 96)}
	for i := range b.Votes {
		b.Votes[i] = BatchVote{Trial: uint32(i), Node: 1234, Reject: i%7 == 0}
	}
	return b.appendPayload(nil)
}

// TestCompressGolden pins the encoder's exact output for a fixed input:
// the determinism contract (identical input → byte-identical compressed
// bytes, across runs, Go versions and architectures) reduced to a golden
// byte string. If this test ever needs a new golden value, the encoder
// changed and every differential guarantee must be re-checked.
func TestCompressGolden(t *testing.T) {
	const golden = "4f0060000201004b3fd2090001004b7181402010080402070000"
	src := goldenBatchPayload()
	got := CompressBlock(src, nil)
	if hex.EncodeToString(got) != golden {
		t.Fatalf("compressed bytes drifted:\n got %s\nwant %s", hex.EncodeToString(got), golden)
	}
	if ref := compressBlockRef(src, nil); !bytes.Equal(got, ref) {
		t.Fatalf("golden block differs from the reference compressor: %x", ref)
	}
	// And it round-trips.
	out, err := DecompressBlock(got, nil, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("golden block does not round-trip: %v", err)
	}
	// Re-running the encoder (fresh scratch, dirty dst prefix) reproduces
	// the same bytes.
	again := CompressBlock(src, []byte("prefix"))
	if hex.EncodeToString(again[len("prefix"):]) != golden {
		t.Fatal("encoder output depends on dst state")
	}
}

func TestCompressRoundTripVariety(t *testing.T) {
	lcg := uint32(12345)
	noise := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			lcg = lcg*1664525 + 1013904223
			p[i] = byte(lcg >> 24)
		}
		return p
	}
	cases := []struct {
		name string
		src  []byte
	}{
		{"zeros", make([]byte, 300)},
		{"run", bytes.Repeat([]byte{0xAB}, 1000)},
		{"pattern", bytes.Repeat([]byte("abcdefg-"), 64)},
		{"batch", goldenBatchPayload()},
		{"mixed", append(noise(100), make([]byte, 400)...)},
	}
	for _, c := range cases {
		comp := CompressBlock(c.src, nil)
		if comp == nil {
			t.Fatalf("%s: compressible input rejected", c.name)
		}
		if len(comp) >= len(c.src) {
			t.Fatalf("%s: compressed %d ≥ raw %d", c.name, len(comp), len(c.src))
		}
		out, err := DecompressBlock(comp, nil, len(c.src))
		if err != nil || !bytes.Equal(out, c.src) {
			t.Fatalf("%s: round trip failed: %v", c.name, err)
		}
	}

	// Incompressible and tiny inputs return nil — the caller sends raw.
	if CompressBlock(noise(256), nil) != nil {
		t.Fatal("random bytes reported as compressible")
	}
	if CompressBlock([]byte{1, 2, 3}, nil) != nil {
		t.Fatal("tiny input reported as compressible")
	}
	if CompressBlock(nil, nil) != nil {
		t.Fatal("empty input reported as compressible")
	}
}

// TestDecompressAdversarial feeds malformed blocks and checks for typed
// errors, bounded output and no panics.
func TestDecompressAdversarial(t *testing.T) {
	src := goldenBatchPayload()
	comp := CompressBlock(src, nil)

	// Every truncation fails cleanly or yields a short (never oversized)
	// output.
	for cut := 0; cut < len(comp); cut++ {
		out, err := DecompressBlock(comp[:cut], nil, len(src))
		if err == nil && len(out) > len(src) {
			t.Fatalf("cut %d: output %d exceeds cap", cut, len(out))
		}
	}
	// Every single-byte corruption decodes to something bounded or errors.
	for i := range comp {
		mut := append([]byte(nil), comp...)
		mut[i] ^= 0xFF
		out, err := DecompressBlock(mut, nil, len(src))
		if err == nil && len(out) > len(src) {
			t.Fatalf("corrupt byte %d: output %d exceeds cap", i, len(out))
		}
	}

	// A decompression bomb (huge match runs) is stopped at maxOut.
	bomb := []byte{0x1F, 0xAA} // 1 literal, match len 15+ext
	bomb = append(bomb, 0x01, 0x00)
	for i := 0; i < 100; i++ {
		bomb = append(bomb, 255)
	}
	bomb = append(bomb, 0)
	if _, err := DecompressBlock(bomb, nil, 64); !errors.Is(err, ErrCompression) {
		t.Fatalf("bomb: err = %v, want ErrCompression", err)
	}

	// Offset pointing before the output start.
	bad := []byte{0x10, 0xAA, 0x05, 0x00, 0x00}
	if _, err := DecompressBlock(bad, nil, 64); !errors.Is(err, ErrCompression) {
		t.Fatalf("bad offset: err = %v, want ErrCompression", err)
	}
}

// TestCompressOverlappingRuns exercises the RLE-style overlapping match
// copy (offset < match length).
func TestCompressOverlappingRuns(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 500)
	comp := CompressBlock(src, nil)
	if comp == nil || len(comp) > 16 {
		t.Fatalf("run-length input compressed to %d bytes", len(comp))
	}
	out, err := DecompressBlock(comp, nil, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("overlap round trip failed: %v", err)
	}
}
