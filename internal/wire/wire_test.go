package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// everyFrame returns one instance of each frame type with distinctive
// field values.
func everyFrame() []Frame {
	return []Frame{
		&Hello{Node: 7, K: 2000, Trials: 60},
		&Vote{Trial: 3, Node: 1999, Reject: true},
		&Vote{Trial: 0, Node: 0, Reject: false},
		&Sketch{Trial: 12, Node: 5, Samples: 48, Collisions: 2},
		&Done{Node: 42},
		&Verdict{Trials: 60, Accepts: 59, Missing: 3},
	}
}

func TestRoundTripEveryType(t *testing.T) {
	for _, f := range everyFrame() {
		buf := Append(nil, f)
		if len(buf) != EncodedSize(f) {
			t.Errorf("%T: encoded %d bytes, EncodedSize says %d", f, len(buf), EncodedSize(f))
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", f, err)
		}
		if n != len(buf) {
			t.Errorf("%T: consumed %d of %d bytes", f, n, len(buf))
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip: got %#v, want %#v", got, f)
		}
	}
}

func TestReaderStream(t *testing.T) {
	frames := everyFrame()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	full := Append(nil, &Vote{Trial: 1, Node: 2, Reject: true})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReaderRejectsMidFrameEOF(t *testing.T) {
	full := Append(nil, &Sketch{Trial: 1, Node: 2, Samples: 3, Collisions: 1})
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.ReadFrame(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeRejectsOversize(t *testing.T) {
	// The stream-level cap is the batch frame limit.
	var b []byte
	b = binary.BigEndian.AppendUint32(b, MaxBatchFrameBytes+1)
	b = append(b, make([]byte, MaxBatchFrameBytes+1)...)
	if _, _, err := Decode(b); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	if _, err := NewReader(bytes.NewReader(b)).ReadFrame(); !errors.Is(err, ErrOversize) {
		t.Fatalf("reader err = %v, want ErrOversize", err)
	}
	// The 64-byte CONGEST-mirror cap still applies to single-vote types:
	// a vote frame padded past MaxFrameBytes is a protocol error even
	// though the stream-level cap admits larger (batch) frames.
	var v []byte
	v = binary.BigEndian.AppendUint32(v, MaxFrameBytes+1)
	v = append(v, Version, TypeVote)
	v = append(v, make([]byte, MaxFrameBytes-1)...)
	if _, _, err := Decode(v); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize vote err = %v, want ErrOversize", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := Append(nil, &Done{Node: 1})
	b[4] = Version + 1
	if _, _, err := Decode(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	b := Append(nil, &Done{Node: 1})
	b[5] = 0xEE
	if _, _, err := Decode(b); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestDecodeRejectsWrongPayloadSize(t *testing.T) {
	// A Done frame claiming a Hello-sized payload.
	var b []byte
	b = binary.BigEndian.AppendUint32(b, 2+12)
	b = append(b, Version, TypeDone)
	b = append(b, make([]byte, 12)...)
	if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
	// A body too short to hold the version and type bytes.
	for _, short := range [][]byte{nil, {Version}} {
		if _, _, _, err := DecodeBodySession(short, nil); !errors.Is(err, ErrFrameSize) {
			t.Fatalf("%d-byte body: err = %v, want ErrFrameSize", len(short), err)
		}
	}
}

func TestDecodeRejectsBadVoteFlag(t *testing.T) {
	b := Append(nil, &Vote{Trial: 1, Node: 2})
	b[len(b)-1] = 7 // flag byte must be 0 or 1
	if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestTracedRoundTripEveryType(t *testing.T) {
	tc := TraceContext{Trace: 0xdeadbeefcafef00d, Span: 0x0123456789abcdef}
	for _, f := range everyFrame() {
		buf := AppendTraced(nil, f, tc)
		if len(buf) != EncodedSizeTraced(f, tc) {
			t.Errorf("%T: encoded %d bytes, EncodedSizeTraced says %d", f, len(buf), EncodedSizeTraced(f, tc))
		}
		got, gotTC, n, err := DecodeTraced(buf)
		if err != nil {
			t.Fatalf("%T: decode traced: %v", f, err)
		}
		if n != len(buf) {
			t.Errorf("%T: consumed %d of %d bytes", f, n, len(buf))
		}
		if gotTC != tc {
			t.Errorf("%T: trace context %+v, want %+v", f, gotTC, tc)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip: got %#v, want %#v", got, f)
		}
		// The plain decoder must accept the same frame, dropping the context.
		if plain, _, err := Decode(buf); err != nil || !reflect.DeepEqual(plain, f) {
			t.Errorf("Decode(traced) = (%#v, %v)", plain, err)
		}
	}
}

func TestTracedReaderStream(t *testing.T) {
	frames := everyFrame()
	var buf bytes.Buffer
	for i, f := range frames {
		// Alternate traced and untraced frames in one stream.
		tc := TraceContext{}
		if i%2 == 0 {
			tc = TraceContext{Trace: uint64(i) + 1, Span: uint64(i) * 7}
		}
		if err := WriteFrameTraced(&buf, f, tc); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, tc, err := r.ReadFrameTraced()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: got %#v, want %#v", i, got, want)
		}
		if i%2 == 0 && tc.Trace != uint64(i)+1 {
			t.Errorf("frame %d: trace %d, want %d", i, tc.Trace, i+1)
		}
		if i%2 == 1 && !tc.IsZero() {
			t.Errorf("frame %d: unexpected trace context %+v", i, tc)
		}
	}
}

// layoutCases is one frame of every type with its encoded length (prefix
// included) without suffixes, with a session, with a trace, and with both.
// The lengths are pinned because the byte accounting (Stats.Bytes, the
// benchmark's bytes per vote) is reported in them. Control types ignore
// the session, so their session columns repeat the sessionless sizes.
var layoutCases = []struct {
	name string
	typ  byte // the on-wire type: votebatchz encodes a VoteBatch compressed
	f    Frame
	size [4]int
}{
	{"hello", TypeHello, &Hello{Node: 7, K: 2000, Trials: 60}, [4]int{18, 22, 34, 38}},
	{"vote", TypeVote, &Vote{Trial: 3, Node: 1999, Reject: true}, [4]int{15, 19, 31, 35}},
	{"sketch", TypeSketch, &Sketch{Trial: 12, Node: 5, Samples: 48, Collisions: 2}, [4]int{22, 26, 38, 42}},
	{"done", TypeDone, &Done{Node: 42}, [4]int{10, 14, 26, 30}},
	{"verdict", TypeVerdict, &Verdict{Trials: 60, Accepts: 59, Missing: 3}, [4]int{18, 22, 34, 38}},
	{"votebatch", TypeVoteBatch, &VoteBatch{Votes: seqVotes(3, 9, false)}, [4]int{28, 32, 44, 48}},
	{"votebatchz", TypeVoteBatchZ, &VoteBatch{Votes: seqVotes(7, 512, false)}, [4]int{33, 37, 49, 53}},
	{"agghello", TypeAggHello, &AggHello{Agg: 2, K: 100, Trials: 7, Lo: 10, Hi: 20}, [4]int{26, 30, 42, 46}},
	{"partialverdict", TypePartialVerdict, samplePartial(), [4]int{21, 25, 37, 41}},
	{"sessionopen", TypeSessionOpen, &SessionOpen{Tenant: 5, K: 100, Trials: 7, Seed: 99,
		Rule: RuleThreshold, Thresh: 11, Sketch: true, EarlyClose: true}, [4]int{32, 32, 48, 48}},
	{"sessionaccept", TypeSessionAccept, &SessionAccept{Session: 12, Tenant: 5}, [4]int{14, 14, 30, 30}},
	{"sessionreject", TypeSessionReject, &SessionReject{Tenant: 5, Reason: RejectBudget}, [4]int{11, 11, 27, 27}},
	{"sessionreport", TypeSessionReport, &SessionReport{Session: 12, K: 10, Verdicts: []bool{true, false, true},
		Rejects: []uint32{0, 4, 1}, Votes: []uint32{10, 9, 10}, Missing: []uint32{0, 1, 0}}, [4]int{25, 25, 41, 41}},
}

// TestFrameLayout pins the one frame layout for every type × {trace, no
// trace} × {session, none}: the header bytes, the exact encoded length,
// the decode∘encode round trip with the routing peeks, and the typed
// rejection of every non-canonical variant.
func TestFrameLayout(t *testing.T) {
	tc := TraceContext{Trace: 0xdeadbeefcafef00d, Span: 0x0123456789abcdef}
	var sc DecodeScratch
	for _, c := range layoutCases {
		for i, ctx := range []TraceContext{{}, tc} {
			for j, session := range []uint32{0, 7} {
				name := fmt.Sprintf("%s/trace=%v/session=%d", c.name, !ctx.IsZero(), session)
				var enc []byte
				if b, ok := c.f.(*VoteBatch); ok {
					var e BatchEncoder
					var err error
					if enc, err = e.AppendSession(nil, b, session, ctx, true); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				} else {
					enc = AppendSession(nil, c.f, session, ctx)
				}
				if len(enc) != c.size[2*i+j] {
					t.Errorf("%s: encoded %d bytes, want %d", name, len(enc), c.size[2*i+j])
				}
				wantSess, typeByte := session, c.typ
				if isControl(c.typ) {
					wantSess = 0
				}
				if wantSess != 0 {
					typeByte |= sessionFlag
				}
				if !ctx.IsZero() {
					typeByte |= traceFlag
				}
				if enc[4] != Version || enc[5] != typeByte {
					t.Errorf("%s: header %#x %#x, want %#x %#x", name, enc[4], enc[5], Version, typeByte)
				}
				body := enc[4:]
				got, gotTC, gotSess, err := DecodeBodySession(body, &sc)
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				if gotSess != wantSess || gotTC != ctx || !framesEqual(got, c.f) {
					t.Errorf("%s: round trip: got (%#v, %+v, session %d)", name, got, gotTC, gotSess)
				}
				if BodyType(body) != c.typ || SessionOf(body) != wantSess {
					t.Errorf("%s: peeks type %d session %d", name, BodyType(body), SessionOf(body))
				}

				reject := func(what string, want error, mutate func(b []byte)) {
					t.Helper()
					b := append([]byte(nil), body...)
					mutate(b)
					if _, _, _, err := DecodeBodySession(b, nil); !errors.Is(err, want) {
						t.Errorf("%s: %s: err = %v, want %v", name, what, err, want)
					}
				}
				reject("version 0", ErrVersion, func(b []byte) { b[0] = 0 })
				reject("next version", ErrVersion, func(b []byte) { b[0] = Version + 1 })
				reject("type 0", ErrUnknownType, func(b []byte) { b[1] &^= typeMask })
				reject("type bits past the range", ErrUnknownType, func(b []byte) { b[1] |= typeMask })
				suffixEnd := len(body)
				if !ctx.IsZero() {
					suffixEnd -= traceContextBytes
					reject("flagged zero trace", ErrTraceContext, func(b []byte) { clear(b[suffixEnd : suffixEnd+8]) })
				}
				if wantSess != 0 {
					reject("flagged session 0", ErrSession, func(b []byte) { clear(b[suffixEnd-sessionBytes : suffixEnd]) })
				}
				if isControl(c.typ) {
					reject("session flag on a control type", ErrSession, func(b []byte) { b[1] |= sessionFlag })
				}
			}
		}
	}
}

// TestVersionNegotiation pins the one-version contract on the stream
// paths: an untraced frame is the bare version-1 layout and decodes with
// a zero context, a trace flag and its suffix bytes must come together,
// and a frame from a later version is rejected with ErrVersion rather
// than a panic.
func TestVersionNegotiation(t *testing.T) {
	vote := &Vote{Trial: 3, Node: 9, Reject: true}
	tc := TraceContext{Trace: 77, Span: 88}

	t.Run("v1 accepted without context", func(t *testing.T) {
		b := Append(nil, vote)
		if b[4] != Version || b[5] != TypeVote {
			t.Fatalf("untraced frame header %#x %#x, want %#x %#x", b[4], b[5], Version, TypeVote)
		}
		f, gotTC, _, err := DecodeTraced(b)
		if err != nil || !gotTC.IsZero() || !reflect.DeepEqual(f, vote) {
			t.Fatalf("DecodeTraced(v1) = (%#v, %+v, %v)", f, gotTC, err)
		}
	})
	t.Run("zero context encodes as v1", func(t *testing.T) {
		if !bytes.Equal(AppendTraced(nil, vote, TraceContext{}), Append(nil, vote)) {
			t.Fatal("AppendTraced with zero context is not byte-identical to Append")
		}
	})
	t.Run("v1 with trailing context bytes rejected", func(t *testing.T) {
		b := AppendTraced(nil, vote, tc)
		b[5] &^= traceFlag // drop the flag while carrying the 16-byte suffix
		if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
			t.Fatalf("err = %v, want ErrFrameSize", err)
		}
		// And the converse: the flag without the suffix bytes.
		b = Append(nil, vote)
		b[5] |= traceFlag
		if _, _, err := Decode(b); !errors.Is(err, ErrFrameSize) {
			t.Fatalf("flag without suffix: err = %v, want ErrFrameSize", err)
		}
	})
	t.Run("v-next rejected gracefully", func(t *testing.T) {
		for _, base := range [][]byte{Append(nil, vote), AppendTraced(nil, vote, tc)} {
			b := append([]byte(nil), base...)
			b[4] = Version + 1
			if _, _, err := Decode(b); !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode err = %v, want ErrVersion", err)
			}
			if _, err := NewReader(bytes.NewReader(b)).ReadFrame(); !errors.Is(err, ErrVersion) {
				t.Fatalf("Reader err = %v, want ErrVersion", err)
			}
		}
	})
}

func TestDecodeConsumesOneFrameOfMany(t *testing.T) {
	first := Append(nil, &Vote{Trial: 9, Node: 1, Reject: true})
	b := Append(append([]byte(nil), first...), &Done{Node: 1})
	f, n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(first) {
		t.Fatalf("consumed %d, want %d", n, len(first))
	}
	if v, ok := f.(*Vote); !ok || v.Trial != 9 {
		t.Fatalf("first frame = %#v", f)
	}
}
