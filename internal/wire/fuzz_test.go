package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip drives the codec from both ends. Structured inputs
// build one frame of every type from the fuzzed fields and assert the
// encode→decode round trip is lossless through both Decode and Reader;
// the raw tail bytes are then decoded as-is to assert adversarial input
// never panics and only ever fails with the codec's typed errors —
// truncated, oversized, bad-version, unknown-type and mis-sized frames
// all degrade to errors, exactly as a referee facing a hostile peer
// requires.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), false, []byte{})
	f.Add(uint32(7), uint32(2000), uint32(60), uint32(3), true, Append(nil, &Vote{Trial: 1, Node: 2, Reject: true}))
	f.Add(uint32(1<<31), uint32(1), uint32(1<<20), uint32(9), false, []byte{0, 0, 0, 200, 1, 2})
	f.Add(uint32(3), uint32(4), uint32(5), uint32(6), true, []byte{0, 0, 0, 2, Version, TypeVote | traceFlag})
	f.Add(uint32(0), uint32(1), uint32(2), uint32(3), false, []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, a, b, c, d uint32, flag bool, raw []byte) {
		frames := []Frame{
			&Hello{Node: a, K: b, Trials: c},
			&Vote{Trial: a, Node: b, Reject: flag},
			&Sketch{Trial: a, Node: b, Samples: c, Collisions: d},
			&Done{Node: d},
			&Verdict{Trials: a, Accepts: b, Missing: c},
		}
		// A nonzero trace ID derived from the fuzzed fields; every frame is
		// exercised both untraced and traced.
		tc := TraceContext{Trace: uint64(a)<<32 | uint64(b) | 1, Span: uint64(c)<<32 | uint64(d)}
		var stream []byte
		for _, fr := range frames {
			enc := Append(nil, fr)
			if len(enc) != EncodedSize(fr) {
				t.Fatalf("%T: encoded %d bytes, EncodedSize %d", fr, len(enc), EncodedSize(fr))
			}
			if len(enc)-4 > MaxFrameBytes {
				t.Fatalf("%T: frame body %d bytes exceeds MaxFrameBytes", fr, len(enc)-4)
			}
			got, n, err := Decode(enc)
			if err != nil {
				t.Fatalf("%T: decode own encoding: %v", fr, err)
			}
			if n != len(enc) {
				t.Fatalf("%T: consumed %d of %d", fr, n, len(enc))
			}
			if !reflect.DeepEqual(got, fr) {
				t.Fatalf("round trip: got %#v, want %#v", got, fr)
			}
			stream = append(stream, enc...)

			traced := AppendTraced(nil, fr, tc)
			if len(traced) != EncodedSizeTraced(fr, tc) {
				t.Fatalf("%T: traced encoded %d bytes, EncodedSizeTraced %d", fr, len(traced), EncodedSizeTraced(fr, tc))
			}
			if len(traced)-4 > MaxFrameBytes {
				t.Fatalf("%T: traced frame body %d bytes exceeds MaxFrameBytes", fr, len(traced)-4)
			}
			gotT, gotTC, n, err := DecodeTraced(traced)
			if err != nil {
				t.Fatalf("%T: decode own traced encoding: %v", fr, err)
			}
			if n != len(traced) || gotTC != tc || !reflect.DeepEqual(gotT, fr) {
				t.Fatalf("traced round trip: got (%#v, %+v, %d), want (%#v, %+v, %d)", gotT, gotTC, n, fr, tc, len(traced))
			}
			stream = append(stream, traced...)
		}
		// The same frames concatenated must stream-decode in order,
		// alternating untraced and traced copies.
		r := NewReader(bytes.NewReader(stream))
		for i, want := range frames {
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("stream frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stream frame %d: got %#v, want %#v", i, got, want)
			}
			gotT, gotTC, err := r.ReadFrameTraced()
			if err != nil {
				t.Fatalf("stream traced frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(gotT, want) || gotTC != tc {
				t.Fatalf("stream traced frame %d: got (%#v, %+v)", i, gotT, gotTC)
			}
		}
		if _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("stream end: err = %v, want io.EOF", err)
		}

		// Adversarial path: arbitrary bytes must decode to a frame or a
		// typed codec error, never panic, and consumed bytes must stay in
		// bounds.
		checkErr := func(err error) {
			if err == nil || err == io.EOF {
				return
			}
			for _, known := range []error{ErrTruncated, ErrOversize, ErrVersion, ErrUnknownType, ErrFrameSize, ErrTraceContext, ErrSession, ErrCompression} {
				if errors.Is(err, known) {
					return
				}
			}
			t.Fatalf("unexpected error class: %v", err)
		}
		fr, ftc, n, err := DecodeTraced(raw)
		if err == nil {
			if fr == nil || n < 4 || n > len(raw) {
				t.Fatalf("Decode(raw) = (%v, %d, nil) on %d bytes", fr, n, len(raw))
			}
			// Whatever decoded must re-encode to the exact consumed bytes:
			// the codec is canonical (each suffix flagged iff present and
			// nonzero, raw columnar payloads bijective). The one exception
			// is a compressed batch — any valid compressor output is
			// accepted, so equality there is semantic: re-encode raw,
			// decode, same votes.
			fsess := SessionOf(raw[headerBytes:n])
			if vb, ok := fr.(*VoteBatch); ok && vb.Compressed {
				re := AppendTraced(nil, vb, ftc)
				f2, tc2, _, err := DecodeTraced(re)
				if err != nil || tc2 != ftc {
					t.Fatalf("compressed batch re-encode decode: %v", err)
				}
				vb2 := f2.(*VoteBatch)
				if vb2.Sketch != vb.Sketch || !reflect.DeepEqual(vb2.Votes, vb.Votes) {
					t.Fatal("compressed batch re-encode lost votes")
				}
			} else if re := AppendSession(nil, fr, fsess, ftc); !bytes.Equal(re, raw[:n]) {
				t.Fatalf("re-encode mismatch: %x vs %x", re, raw[:n])
			}
		} else {
			checkErr(err)
		}
		rr := NewReader(bytes.NewReader(raw))
		for {
			_, err := rr.ReadFrame()
			if err != nil {
				checkErr(err)
				break
			}
		}
	})
}

// FuzzVoteBatchRoundTrip drives the batch codec from both ends: fuzzed
// batches (typical and adversarial shapes, raw and compressed, traced and
// untraced) must round-trip losslessly with decode→re-encode byte equality
// for raw frames; fuzzed raw bytes framed as batch payloads must decode or
// fail with typed errors — never panic — with the count and size caps
// enforced.
func FuzzVoteBatchRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint32(0), uint64(0), false, false, []byte{})
	f.Add(uint16(100), uint32(42), uint64(7), false, true, []byte{0, 1, 2})
	f.Add(uint16(64), uint32(3), uint64(9), true, true, Append(nil, &VoteBatch{Votes: []BatchVote{{Trial: 1, Node: 2}}})[4:])
	f.Add(uint16(4096), uint32(1999), uint64(3), false, false, []byte{1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, count uint16, node uint32, seed uint64, sketch, compress bool, raw []byte) {
		n := int(count)%MaxBatchVotes + 1
		b := &VoteBatch{Sketch: sketch}
		if seed%2 == 0 {
			// Typical shape: one node, trials in order.
			for i := 0; i < n; i++ {
				v := BatchVote{Trial: uint32(i), Node: node}
				if sketch {
					v.Samples, v.Collisions = 48, uint32(i%2)
				} else {
					v.Reject = (uint64(i)+seed)%3 == 0
				}
				b.Votes = append(b.Votes, v)
			}
		} else {
			b.Votes = advVotes(seed, n, sketch)
		}
		tc := TraceContext{Trace: seed | 1, Span: seed >> 1}
		for _, ctx := range []TraceContext{{}, tc} {
			enc, err := AppendBatch(nil, b, ctx, compress)
			if err != nil {
				t.Fatalf("encode %d votes: %v", n, err)
			}
			if len(enc)-4 > MaxBatchFrameBytes {
				t.Fatalf("batch frame body %d bytes exceeds cap", len(enc)-4)
			}
			got, gotTC, consumed, err := DecodeTraced(enc)
			if err != nil {
				t.Fatalf("decode own encoding: %v", err)
			}
			vb := got.(*VoteBatch)
			if consumed != len(enc) || gotTC != ctx || vb.Sketch != b.Sketch || !reflect.DeepEqual(vb.Votes, b.Votes) {
				t.Fatal("batch round trip mismatch")
			}
			if !vb.Compressed {
				// Raw batches are bijective.
				if re := AppendTraced(nil, vb, ctx); !bytes.Equal(re, enc) {
					t.Fatalf("raw batch re-encode mismatch: %x vs %x", re, enc)
				}
			} else if vb.Saved <= 0 {
				t.Fatalf("compressed batch with Saved = %d", vb.Saved)
			}
		}
		// Cap enforcement survives fuzzing.
		over := &VoteBatch{Votes: make([]BatchVote, MaxBatchVotes+1)}
		if _, err := AppendBatch(nil, over, TraceContext{}, compress); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize batch: err = %v", err)
		}

		// Adversarial path: raw bytes framed as each batch type must decode
		// (then re-encode canonically, checked by the main fuzz target's
		// logic) or fail typed.
		var sc DecodeScratch
		for _, typ := range []byte{TypeVoteBatch, TypeVoteBatchZ, TypeVoteBatch | traceFlag} {
			body := append([]byte{Version, typ}, raw...)
			if len(body) > MaxBatchFrameBytes {
				body = body[:MaxBatchFrameBytes]
			}
			fr, _, err := DecodeBodyScratch(body, &sc)
			if err == nil {
				vb := fr.(*VoteBatch)
				if len(vb.Votes) == 0 || len(vb.Votes) > MaxBatchVotes {
					t.Fatalf("decoded batch with %d votes", len(vb.Votes))
				}
				if typ == TypeVoteBatch {
					// Untraced raw batches are bijective: the decoded batch
					// re-encodes to the exact bytes that decoded.
					re := AppendTraced(nil, vb, TraceContext{})
					if !bytes.Equal(re[4:], body) {
						t.Fatalf("adversarial raw batch not canonical")
					}
				}
				continue
			}
			for _, known := range []error{ErrTruncated, ErrOversize, ErrVersion, ErrUnknownType, ErrFrameSize, ErrTraceContext, ErrCompression} {
				if errors.Is(err, known) {
					err = nil
					break
				}
			}
			if err != nil {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
	})
}

// advPartialEntries builds adversarial partial entries from a seed:
// trial/votes/rejects jump across the u32 range (worst-case deltas) and
// sketch sums across the u64 range, always keeping the per-entry validity
// the decoder enforces (votes ≥ 1, rejects ≤ votes).
func advPartialEntries(seed uint64, n int, sketch bool) []PartialEntry {
	es := make([]PartialEntry, n)
	s := seed
	for i := range es {
		s = s*6364136223846793005 + 1442695040888963407
		e := &es[i]
		e.Trial = uint32(s >> 32)
		e.Votes = uint32(s)%1000 + 1
		e.Rejects = uint32(s>>16) % (e.Votes + 1)
		if sketch {
			s = s*6364136223846793005 + 1442695040888963407
			e.Samples = s
			e.Collisions = s >> 7
		}
	}
	return es
}

// FuzzPartialVerdictRoundTrip drives the aggregation-tier codec from both
// ends: fuzzed partial verdicts (typical and adversarial shapes, traced
// and untraced, vote and sketch mode) must round-trip losslessly with
// decode→re-encode byte equality; fuzzed raw bytes framed as AggHello
// and PartialVerdict bodies must decode canonically or fail with typed
// errors — never panic — with the entry-count and frame-size caps
// enforced.
func FuzzPartialVerdictRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint32(0), uint64(0), false, []byte{})
	f.Add(uint16(64), uint32(3), uint64(7), true, []byte{0, 1, 2})
	f.Add(uint16(500), uint32(9), uint64(2), false, AppendTraced(nil, &AggHello{Agg: 1, K: 8, Trials: 4, Lo: 0, Hi: 4}, TraceContext{})[4:])
	f.Add(uint16(2048), uint32(1), uint64(5), true, []byte{4, 9, 0, 0, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, count uint16, agg uint32, seed uint64, sketch bool, raw []byte) {
		n := int(count)%MaxPartialEntries + 1
		p := &PartialVerdict{Agg: agg, Sketch: sketch}
		if seed%2 == 0 {
			// Typical shape: consecutive trials, near-constant sums.
			p.Entries = make([]PartialEntry, n)
			for i := range p.Entries {
				e := &p.Entries[i]
				e.Trial = uint32(i)
				e.Votes = uint32(seed%64) + 1
				e.Rejects = uint32((seed + uint64(i))) % (e.Votes + 1)
				if sketch {
					e.Samples = uint64(e.Votes) * 48
					e.Collisions = uint64(i % 3)
				}
			}
		} else {
			p.Entries = advPartialEntries(seed, n, sketch)
		}
		tc := TraceContext{Trace: seed | 1, Span: seed >> 1}
		for _, ctx := range []TraceContext{{}, tc} {
			enc, err := AppendPartial(nil, p, ctx)
			if err != nil {
				t.Fatalf("encode %d entries: %v", n, err)
			}
			if len(enc)-4 > MaxBatchFrameBytes {
				t.Fatalf("partial frame body %d bytes exceeds cap", len(enc)-4)
			}
			got, gotTC, consumed, err := DecodeTraced(enc)
			if err != nil {
				t.Fatalf("decode own encoding: %v", err)
			}
			pv := got.(*PartialVerdict)
			if consumed != len(enc) || gotTC != ctx || pv.Sketch != p.Sketch || !reflect.DeepEqual(pv.Entries, p.Entries) {
				t.Fatal("partial round trip mismatch")
			}
			// Partial frames are bijective: decode→re-encode is identity.
			if re := AppendTraced(nil, pv, ctx); !bytes.Equal(re, enc) {
				t.Fatalf("partial re-encode mismatch: %x vs %x", re, enc)
			}
		}
		// Cap enforcement survives fuzzing.
		over := &PartialVerdict{Agg: agg, Entries: make([]PartialEntry, MaxPartialEntries+1)}
		if _, err := AppendPartial(nil, over, TraceContext{}); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize partial: err = %v", err)
		}

		// Adversarial path: raw bytes framed as each aggregation type must
		// decode canonically or fail typed.
		var sc DecodeScratch
		for _, typ := range []byte{TypeAggHello, TypePartialVerdict, TypePartialVerdict | traceFlag} {
			body := append([]byte{Version, typ}, raw...)
			if len(body) > MaxBatchFrameBytes {
				body = body[:MaxBatchFrameBytes]
			}
			fr, ftc, err := DecodeBodyScratch(body, &sc)
			if err == nil {
				if pv, ok := fr.(*PartialVerdict); ok {
					if len(pv.Entries) == 0 || len(pv.Entries) > MaxPartialEntries {
						t.Fatalf("decoded partial with %d entries", len(pv.Entries))
					}
				}
				// Every decodable aggregation body is canonical: re-encoding
				// the frame with its trace context reproduces the exact
				// input bytes.
				re := AppendTraced(nil, fr, ftc)
				if !bytes.Equal(re[4:], body) {
					t.Fatalf("adversarial %s not canonical: %x vs %x", TypeName(typ&typeMask), re[4:], body)
				}
				continue
			}
			for _, known := range []error{ErrTruncated, ErrOversize, ErrVersion, ErrUnknownType, ErrFrameSize, ErrTraceContext} {
				if errors.Is(err, known) {
					err = nil
					break
				}
			}
			if err != nil {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
	})
}

// FuzzCompressRoundTrip pins the compressor's contract on arbitrary
// blocks: the pooled encoder matches the fresh-table reference
// (compressBlockRef) byte for byte, compression is deterministic, only
// reported when it strictly shrinks the input (incompressible and
// sub-threshold blocks return nil), and always inverts exactly; the
// decompressor never panics and never exceeds its output cap on arbitrary
// input.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0}, 100))
	f.Add(bytes.Repeat([]byte("abc"), 50))
	f.Add(goldenBatchPayload())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*MaxBatchFrameBytes {
			data = data[:4*MaxBatchFrameBytes]
		}
		comp := CompressBlock(data, nil)
		if ref := compressBlockRef(data, nil); !bytes.Equal(comp, ref) {
			t.Fatalf("pooled compressor diverges from reference:\n got %x\nwant %x", comp, ref)
		}
		if comp != nil {
			if len(comp) >= len(data) {
				t.Fatalf("compressed %d ≥ raw %d", len(comp), len(data))
			}
			out, err := DecompressBlock(comp, nil, len(data))
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("round trip failed: %v", err)
			}
			// Determinism: a second pass is byte-identical.
			if !bytes.Equal(CompressBlock(data, nil), comp) {
				t.Fatal("compressor is nondeterministic")
			}
		}
		// The input itself treated as a compressed block: bounded, typed,
		// panic-free.
		out, err := DecompressBlock(data, nil, 1<<12)
		if err == nil {
			if len(out) > 1<<12 {
				t.Fatalf("output %d exceeds cap", len(out))
			}
		} else if !errors.Is(err, ErrCompression) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
