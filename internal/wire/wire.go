// Package wire is the cluster runtime's binary codec: a length-prefixed
// framing for the messages the 0-round protocols exchange over real
// connections — a node's Hello, its per-trial Vote (or collision Sketch)
// and VoteBatch, the Done marker closing its vote stream, the referee's
// Verdict, the aggregation tier's AggHello and PartialVerdict
// (partial.go), and the multi-tenant service's session control frames
// (session.go).
//
// Every frame on the wire has one layout:
//
//	[len u32 BE][Version][type | 0x80 trace | 0x40 session][payload][session u32 BE if 0x40][trace 16B if 0x80]
//
// where the length counts everything after the prefix itself. The low six
// bits of the type byte name the frame type; the two high bits flag the
// optional suffixes. The session suffix binds the frame to a multi-tenant
// service session; the trace suffix (trace ID + span ID, both big-endian
// uint64) links the frame into the telemetry plane's distributed trace.
// Trace context is observability metadata only: the referee's verdicts
// never depend on it.
//
// Every message has exactly one byte representation. The encoder sets
// the trace flag iff the trace ID is nonzero and the session flag iff
// the session is nonzero; the decoder rejects a flagged zero trace ID
// (ErrTraceContext), a flagged session 0 (ErrSession), and a session flag
// on a session control type, which carries its session in the payload
// (ErrSession). With both flags clear, a frame is the bare
// [len][Version][type][payload] encoding.
//
// Every frame type has a per-type cap on the frame body (FrameCap),
// checked before any payload is parsed. Single-vote types get the 64-byte
// MaxFrameBytes, mirroring the simulator's CONGEST bandwidth check
// (simnet.ErrBandwidthExceeded): a peer cannot make the referee allocate
// or buffer unbounded memory by lying in the length prefix, and an
// oversized frame is a protocol error, not a crash. The columnar types
// (VoteBatch, PartialVerdict, SessionReport) amortize framing across many
// tuples and get the larger MaxBatchFrameBytes — a typed per-frame-type
// limit, not a raising of the CONGEST-mirror cap.
//
// Decoding never panics on adversarial input: truncated, oversized,
// wrong-version, unknown-type, mis-sized, bad-trace-context and
// bad-session frames all surface as typed errors (ErrTruncated,
// ErrOversize, ErrVersion, ErrUnknownType, ErrFrameSize, ErrTraceContext,
// ErrSession), which the fuzz targets pin.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version byte every frame carries. The decoder
// rejects any other value with ErrVersion.
const Version = 1

// MaxFrameBytes caps the frame body (version + type + payload + suffixes)
// of every fixed-size frame type. All defined fixed-size frames are ≤ 48
// bytes with both suffixes; the cap leaves headroom while keeping the
// referee's per-connection buffer trivially bounded — the cluster
// analogue of the CONGEST per-edge bandwidth limit. FrameCap resolves the
// bound per type.
const MaxFrameBytes = 64

// MaxBatchFrameBytes caps the frame body of the columnar types. It bounds
// MaxBatchVotes worst-case-encoded tuples (≤ 21 bytes each in sketch mode)
// with room for the suffixes, while still keeping per-connection
// buffering small enough that 10⁴+ concurrent peers fit in memory.
const MaxBatchFrameBytes = 1 << 17

// FrameCap returns the frame-body cap (excluding the 4-byte prefix) for a
// frame type: MaxBatchFrameBytes for the columnar types, MaxFrameBytes for
// everything else (including unknown types, which are rejected before the
// cap matters).
func FrameCap(t byte) int {
	if t == TypeVoteBatch || t == TypeVoteBatchZ || t == TypePartialVerdict || t == TypeSessionReport {
		return MaxBatchFrameBytes
	}
	return MaxFrameBytes
}

// headerBytes is the length prefix size.
const headerBytes = 4

// traceContextBytes is the encoded size of a TraceContext suffix.
const traceContextBytes = 16

// sessionBytes is the encoded size of the session-ID suffix.
const sessionBytes = 4

// Type-byte flags: the high two bits announce the optional suffixes, the
// low six name the frame type.
const (
	traceFlag   = 0x80
	sessionFlag = 0x40
	typeMask    = 0x3f
)

// TraceContext is the optional trace correlation suffix of a frame: the
// sender's trace ID and the span that emitted the frame. A zero Trace
// means "absent" — such frames carry no suffix, and the decoder rejects a
// flagged suffix whose trace ID is zero (ErrTraceContext) so every
// encoding has exactly one byte representation.
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// IsZero reports whether the context is absent (no trace ID).
func (tc TraceContext) IsZero() bool { return tc.Trace == 0 }

// Frame type identifiers.
const (
	// TypeHello opens a node's session: node ID, network size, trial count.
	TypeHello = byte(iota + 1)
	// TypeVote carries one node's accept/reject for one trial.
	TypeVote
	// TypeSketch carries one node's raw collision statistic for one trial,
	// letting the referee derive the vote server-side (single-collision
	// testers: reject iff Collisions > 0).
	TypeSketch
	// TypeDone marks the end of a node's vote stream.
	TypeDone
	// TypeVerdict is the referee's closing summary to each node.
	TypeVerdict
	// TypeVoteBatch packs many (trial, node, vote) tuples — or sketch
	// tuples — into one delta/bit-packed frame (batch.go).
	TypeVoteBatch
	// TypeVoteBatchZ is a VoteBatch whose payload is block-compressed
	// (compress.go); only emitted when compression actually saves bytes.
	TypeVoteBatchZ
	// TypeAggHello opens an aggregator's upstream session, announcing the
	// node-ID window it terminates (partial.go).
	TypeAggHello
	// TypePartialVerdict carries an aggregator's per-trial partial sums
	// upstream (partial.go).
	TypePartialVerdict
	// TypeSessionOpen asks the multi-tenant service to admit a new testing
	// session (session.go).
	TypeSessionOpen
	// TypeSessionAccept grants admission, assigning the session ID.
	TypeSessionAccept
	// TypeSessionReject denies admission with a typed reason.
	TypeSessionReject
	// TypeSessionReport is the service's closing per-trial tally to the
	// session opener.
	TypeSessionReport
)

// TypeName returns a short lowercase name for a frame type byte, for
// metric and span labels ("hello", "vote", ...; "type<N>" when unknown).
func TypeName(t byte) string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeVote:
		return "vote"
	case TypeSketch:
		return "sketch"
	case TypeDone:
		return "done"
	case TypeVerdict:
		return "verdict"
	case TypeVoteBatch:
		return "votebatch"
	case TypeVoteBatchZ:
		return "votebatchz"
	case TypeAggHello:
		return "agghello"
	case TypePartialVerdict:
		return "partialverdict"
	case TypeSessionOpen:
		return "sessionopen"
	case TypeSessionAccept:
		return "sessionaccept"
	case TypeSessionReject:
		return "sessionreject"
	case TypeSessionReport:
		return "sessionreport"
	default:
		return fmt.Sprintf("type%d", t)
	}
}

// Codec errors. Decode and ReadFrame wrap these with positional detail;
// match with errors.Is.
var (
	// ErrTruncated marks a frame cut short: a header or body shorter than
	// its declared length.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrOversize marks a frame beyond its type's FrameCap, or a length
	// prefix beyond MaxBatchFrameBytes.
	ErrOversize = errors.New("wire: frame exceeds size limit")
	// ErrVersion marks a version byte other than Version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrUnknownType marks an unrecognized frame type.
	ErrUnknownType = errors.New("wire: unknown frame type")
	// ErrFrameSize marks a known frame type with a malformed payload
	// (wrong size, or a non-canonical columnar encoding).
	ErrFrameSize = errors.New("wire: wrong payload size for frame type")
	// ErrTraceContext marks a traced frame whose trace context is
	// malformed (zero trace ID).
	ErrTraceContext = errors.New("wire: invalid trace context")
	// ErrSession marks a malformed session context: a session-flagged
	// frame with session 0 or of a control type, or a control frame whose
	// payload requires a nonzero session and carries 0.
	ErrSession = errors.New("wire: invalid session ID")
)

// Frame is one protocol message. Implementations are small value types;
// encoding into a caller's buffer (AppendSession) is allocation-free.
type Frame interface {
	// Type returns the frame's type byte.
	Type() byte
	// payloadSize returns the exact encoded payload length.
	payloadSize() int
	// appendPayload appends the payload encoding to dst.
	appendPayload(dst []byte) []byte
	// decodePayload parses a payload: exactly payloadSize bytes for the
	// fixed-size types, self-delimiting for the columnar ones.
	decodePayload(p []byte) error
}

// Hello opens a node's session with the referee.
type Hello struct {
	// Node is the sender's ID in [0, K).
	Node uint32
	// K is the network size the node was configured with; the referee
	// rejects mismatches.
	K uint32
	// Trials is the number of votes the node will submit.
	Trials uint32
}

// Vote is one node's verdict on one trial.
type Vote struct {
	// Trial indexes the Monte-Carlo trial in [0, Trials).
	Trial uint32
	// Node is the voting node's ID.
	Node uint32
	// Reject is true when the node's tester rejected its sample block.
	Reject bool
}

// Sketch is the raw statistic behind a vote: the node's sample count and
// collision count for one trial. For single-collision testers the referee
// derives Reject = Collisions > 0, so Vote and Sketch submissions yield
// identical verdicts.
type Sketch struct {
	Trial uint32
	Node  uint32
	// Samples is the number of samples the node drew this trial.
	Samples uint32
	// Collisions is the number of colliding pairs among them.
	Collisions uint32
}

// Done closes a node's vote stream; the referee treats the node as
// complete even if some of its votes were lost in transit.
type Done struct {
	Node uint32
}

// Verdict is the referee's closing summary, broadcast to every node still
// connected when the run finalizes.
type Verdict struct {
	// Trials is the number of trials decided; Accepts of them accepted.
	Trials  uint32
	Accepts uint32
	// Missing is the total number of votes that never arrived (decided by
	// quorum policy instead).
	Missing uint32
}

func (Hello) Type() byte   { return TypeHello }
func (Vote) Type() byte    { return TypeVote }
func (Sketch) Type() byte  { return TypeSketch }
func (Done) Type() byte    { return TypeDone }
func (Verdict) Type() byte { return TypeVerdict }

func (Hello) payloadSize() int   { return 12 }
func (Vote) payloadSize() int    { return 9 }
func (Sketch) payloadSize() int  { return 16 }
func (Done) payloadSize() int    { return 4 }
func (Verdict) payloadSize() int { return 12 }

func (h Hello) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Node)
	dst = binary.BigEndian.AppendUint32(dst, h.K)
	return binary.BigEndian.AppendUint32(dst, h.Trials)
}

func (h *Hello) decodePayload(p []byte) error {
	h.Node = binary.BigEndian.Uint32(p[0:4])
	h.K = binary.BigEndian.Uint32(p[4:8])
	h.Trials = binary.BigEndian.Uint32(p[8:12])
	return nil
}

func (v Vote) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v.Trial)
	dst = binary.BigEndian.AppendUint32(dst, v.Node)
	flag := byte(0)
	if v.Reject {
		flag = 1
	}
	return append(dst, flag)
}

func (v *Vote) decodePayload(p []byte) error {
	v.Trial = binary.BigEndian.Uint32(p[0:4])
	v.Node = binary.BigEndian.Uint32(p[4:8])
	switch p[8] {
	case 0:
		v.Reject = false
	case 1:
		v.Reject = true
	default:
		return fmt.Errorf("%w: vote flag %d", ErrFrameSize, p[8])
	}
	return nil
}

func (s Sketch) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, s.Trial)
	dst = binary.BigEndian.AppendUint32(dst, s.Node)
	dst = binary.BigEndian.AppendUint32(dst, s.Samples)
	return binary.BigEndian.AppendUint32(dst, s.Collisions)
}

func (s *Sketch) decodePayload(p []byte) error {
	s.Trial = binary.BigEndian.Uint32(p[0:4])
	s.Node = binary.BigEndian.Uint32(p[4:8])
	s.Samples = binary.BigEndian.Uint32(p[8:12])
	s.Collisions = binary.BigEndian.Uint32(p[12:16])
	return nil
}

func (d Done) appendPayload(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, d.Node)
}

func (d *Done) decodePayload(p []byte) error {
	d.Node = binary.BigEndian.Uint32(p[0:4])
	return nil
}

func (v Verdict) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v.Trials)
	dst = binary.BigEndian.AppendUint32(dst, v.Accepts)
	return binary.BigEndian.AppendUint32(dst, v.Missing)
}

func (v *Verdict) decodePayload(p []byte) error {
	v.Trials = binary.BigEndian.Uint32(p[0:4])
	v.Accepts = binary.BigEndian.Uint32(p[4:8])
	v.Missing = binary.BigEndian.Uint32(p[8:12])
	return nil
}

// appendFrame is the one frame encoder: length prefix, version, flagged
// type byte, the size-byte payload written by payload, then the session
// and trace suffixes. The flags follow the values, so the encoding is
// canonical by construction.
func appendFrame(dst []byte, typ byte, size int, payload func([]byte) []byte, session uint32, tc TraceContext) []byte {
	n := 2 + size
	if session != 0 {
		n += sessionBytes
		typ |= sessionFlag
	}
	if !tc.IsZero() {
		n += traceContextBytes
		typ |= traceFlag
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = payload(append(dst, Version, typ))
	if session != 0 {
		dst = binary.BigEndian.AppendUint32(dst, session)
	}
	if !tc.IsZero() {
		dst = binary.BigEndian.AppendUint64(dst, tc.Trace)
		dst = binary.BigEndian.AppendUint64(dst, tc.Span)
	}
	return dst
}

// AppendSession appends f's wire encoding bound to session and carrying
// tc to dst. Session 0 and a zero tc add no suffix. Session control
// frames carry their session inside the payload and never take the
// suffix, whatever session says. Columnar frames encode raw here; use a
// BatchEncoder to compress, and AppendPartialSession or
// AppendSessionReport to enforce their caps.
func AppendSession(dst []byte, f Frame, session uint32, tc TraceContext) []byte {
	if isControl(f.Type()) {
		session = 0
	}
	return appendFrame(dst, f.Type(), f.payloadSize(), f.appendPayload, session, tc)
}

// Append appends f's wire encoding, with neither suffix, to dst.
func Append(dst []byte, f Frame) []byte { return AppendSession(dst, f, 0, TraceContext{}) }

// AppendTraced appends f's wire encoding carrying tc to dst.
func AppendTraced(dst []byte, f Frame, tc TraceContext) []byte { return AppendSession(dst, f, 0, tc) }

// isControl reports whether t is a session control type, which binds its
// session in the payload rather than through the session suffix.
func isControl(t byte) bool { return t >= TypeSessionOpen && t <= TypeSessionReport }

// EncodedSizeSession returns the on-wire size of f, length prefix
// included, when bound to session and carrying tc.
func EncodedSizeSession(f Frame, session uint32, tc TraceContext) int {
	n := headerBytes + 2 + f.payloadSize()
	if session != 0 && !isControl(f.Type()) {
		n += sessionBytes
	}
	if !tc.IsZero() {
		n += traceContextBytes
	}
	return n
}

// EncodedSize returns the on-wire size of f with neither suffix.
func EncodedSize(f Frame) int { return EncodedSizeSession(f, 0, TraceContext{}) }

// EncodedSizeTraced returns the on-wire size of f when carrying tc.
func EncodedSizeTraced(f Frame, tc TraceContext) int { return EncodedSizeSession(f, 0, tc) }

// WriteFrameSession writes f's encoding bound to session and carrying tc
// to w in one Write call (frames are small enough that partial writes
// only occur on a failing connection).
func WriteFrameSession(w io.Writer, f Frame, session uint32, tc TraceContext) error {
	buf := AppendSession(make([]byte, 0, EncodedSizeSession(f, session, tc)), f, session, tc)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write %T: %w", f, err)
	}
	return nil
}

// WriteFrame writes f's encoding, with neither suffix, to w.
func WriteFrame(w io.Writer, f Frame) error { return WriteFrameSession(w, f, 0, TraceContext{}) }

// WriteFrameTraced writes f's encoding carrying tc to w.
func WriteFrameTraced(w io.Writer, f Frame, tc TraceContext) error {
	return WriteFrameSession(w, f, 0, tc)
}

// Decode parses one frame from the front of b, returning the frame and the
// number of bytes consumed (any trace context is validated but dropped; use
// DecodeTraced to keep it). An incomplete buffer returns ErrTruncated (a
// stream reader should read more and retry); a malformed one returns
// ErrOversize, ErrVersion, ErrUnknownType, ErrFrameSize, ErrTraceContext or
// ErrSession.
func Decode(b []byte) (Frame, int, error) {
	f, _, n, err := DecodeTraced(b)
	return f, n, err
}

// DecodeTraced parses one frame and its trace context from the front of b,
// validating but dropping any session context.
func DecodeTraced(b []byte) (Frame, TraceContext, int, error) {
	if len(b) < headerBytes {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	n, err := bodyLen(b)
	if err != nil {
		return nil, TraceContext{}, 0, err
	}
	total := headerBytes + n
	if len(b) < total {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: have %d of %d bytes", ErrTruncated, len(b), total)
	}
	f, tc, _, err := decodeBodyAll(b[headerBytes:total], nil)
	if err != nil {
		return nil, TraceContext{}, 0, err
	}
	return f, tc, total, nil
}

// bodyLen reads and bounds a frame's length prefix: at least the version
// and type bytes, at most the largest per-type cap.
func bodyLen(head []byte) (int, error) {
	n := binary.BigEndian.Uint32(head)
	if n > MaxBatchFrameBytes {
		return 0, fmt.Errorf("%w: declared %d bytes (limit %d)", ErrOversize, n, MaxBatchFrameBytes)
	}
	if n < 2 {
		return 0, fmt.Errorf("%w: declared %d bytes, need ≥ 2", ErrFrameSize, n)
	}
	return int(n), nil
}

// DecodeScratch holds reusable frame values and buffers so a steady-state
// decode loop allocates nothing. Frames returned from a scratch-backed
// decode are only valid until the next decode with the same scratch; each
// connection handler owns its own scratch.
type DecodeScratch struct {
	hello    Hello
	vote     Vote
	sketch   Sketch
	done     Done
	verdict  Verdict
	batch    VoteBatch
	aggHello AggHello
	partial  PartialVerdict
	open     SessionOpen
	accept   SessionAccept
	reject   SessionReject
	report   SessionReport
	// zbuf holds a decompressed batch payload between decodes.
	zbuf []byte
}

// frame returns the scratch-held value for frame type t. Every
// decodePayload writes all of its fields (the columnar ones reslice and
// clear their reused slices), so no reset between reuses is needed.
func (sc *DecodeScratch) frame(t byte) Frame {
	switch t {
	case TypeHello:
		return &sc.hello
	case TypeVote:
		return &sc.vote
	case TypeSketch:
		return &sc.sketch
	case TypeDone:
		return &sc.done
	case TypeVerdict:
		return &sc.verdict
	case TypeVoteBatch, TypeVoteBatchZ:
		return &sc.batch
	case TypeAggHello:
		return &sc.aggHello
	case TypePartialVerdict:
		return &sc.partial
	case TypeSessionOpen:
		return &sc.open
	case TypeSessionAccept:
		return &sc.accept
	case TypeSessionReject:
		return &sc.reject
	default:
		return &sc.report
	}
}

// decodeBodyAll is the one frame decoder. It checks the version, strips
// the flags, applies the type's frame cap, peels the trace and session
// suffixes, and parses the payload. With a non-nil scratch the returned
// frame aliases scratch storage instead of allocating.
func decodeBodyAll(body []byte, sc *DecodeScratch) (Frame, TraceContext, uint32, error) {
	if len(body) < 2 {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: %d-byte frame body", ErrFrameSize, len(body))
	}
	if body[0] != Version {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, body[0], Version)
	}
	flags, t := body[1]&^typeMask, body[1]&typeMask
	if t < TypeHello || t > TypeSessionReport {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: type %d", ErrUnknownType, t)
	}
	if len(body) > FrameCap(t) {
		return nil, TraceContext{}, 0, fmt.Errorf("%w: %d-byte %s frame (limit %d)",
			ErrOversize, len(body), TypeName(t), FrameCap(t))
	}
	payload := body[2:]
	var tc TraceContext
	if flags&traceFlag != 0 {
		if len(payload) < traceContextBytes {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: traced %s frame with %d-byte body",
				ErrFrameSize, TypeName(t), len(body))
		}
		tail := payload[len(payload)-traceContextBytes:]
		tc.Trace = binary.BigEndian.Uint64(tail[:8])
		tc.Span = binary.BigEndian.Uint64(tail[8:])
		if tc.Trace == 0 {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: zero trace ID on a traced frame", ErrTraceContext)
		}
		payload = payload[:len(payload)-traceContextBytes]
	}
	var session uint32
	if flags&sessionFlag != 0 {
		if isControl(t) {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: session flag on control type %s", ErrSession, TypeName(t))
		}
		if len(payload) < sessionBytes {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: %s frame missing session suffix", ErrFrameSize, TypeName(t))
		}
		session = binary.BigEndian.Uint32(payload[len(payload)-sessionBytes:])
		if session == 0 {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: session flag with session 0", ErrSession)
		}
		payload = payload[:len(payload)-sessionBytes]
	}
	if sc == nil {
		sc = &DecodeScratch{}
	}
	f := sc.frame(t)
	var err error
	switch t {
	case TypeVoteBatchZ:
		err = sc.batch.decodeZPayload(payload, &sc.zbuf)
	case TypeVoteBatch, TypePartialVerdict, TypeSessionReport:
		// Columnar payloads delimit themselves.
		err = f.decodePayload(payload)
	default:
		if len(payload) != f.payloadSize() {
			return nil, TraceContext{}, 0, fmt.Errorf("%w: %s payload %d bytes, want %d",
				ErrFrameSize, TypeName(t), len(payload), f.payloadSize())
		}
		err = f.decodePayload(payload)
	}
	if err != nil {
		return nil, TraceContext{}, 0, err
	}
	return f, tc, session, nil
}

// DecodeBodySession parses a complete frame body (version, type, payload,
// suffixes) as returned by Reader.ReadBody, returning the frame, its trace
// context and its session (0 without the session suffix). With a non-nil
// scratch the frame aliases scratch storage and is only valid until the
// next decode with the same scratch, so steady-state decode allocates
// nothing.
func DecodeBodySession(body []byte, sc *DecodeScratch) (Frame, TraceContext, uint32, error) {
	return decodeBodyAll(body, sc)
}

// DecodeBodyScratch is DecodeBodySession without the session.
func DecodeBodyScratch(body []byte, sc *DecodeScratch) (Frame, TraceContext, error) {
	f, tc, _, err := decodeBodyAll(body, sc)
	return f, tc, err
}

// DecodeBody is DecodeBodyScratch without scratch: the frame is freshly
// allocated.
func DecodeBody(body []byte) (Frame, TraceContext, error) { return DecodeBodyScratch(body, nil) }

// BodyType returns the frame type of an encoded frame body with the flags
// stripped, or 0 when the body is too short to carry one. It never
// validates the body — use it to route a frame before the full decode,
// never instead of it.
func BodyType(body []byte) byte {
	if len(body) < 2 {
		return 0
	}
	return body[1] & typeMask
}

// SessionOf returns the session a frame body's suffix binds it to, or 0
// when the session flag is clear or the body is too short to carry the
// suffix (which the full decode rejects). Like BodyType it is a routing
// peek, not a validator.
func SessionOf(body []byte) uint32 {
	if len(body) < 2 || body[1]&sessionFlag == 0 {
		return 0
	}
	end := len(body)
	if body[1]&traceFlag != 0 {
		end -= traceContextBytes
	}
	if end < 2+sessionBytes {
		return 0
	}
	return binary.BigEndian.Uint32(body[end-sessionBytes : end])
}

// Reader decodes a frame stream from an io.Reader with reusable buffers:
// an inline array covering every fixed-size frame and a lazily-allocated,
// reused spill buffer for columnar frames (bounded by MaxBatchFrameBytes).
type Reader struct {
	r   io.Reader
	big []byte
	buf [headerBytes + MaxFrameBytes]byte
}

// NewReader wraps r as a frame stream.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadFrame reads and decodes the next frame, dropping any trace and
// session context. io.EOF is returned unwrapped at a clean frame boundary;
// an EOF mid-frame surfaces as ErrTruncated.
func (r *Reader) ReadFrame() (Frame, error) {
	f, _, err := r.ReadFrameTraced()
	return f, err
}

// ReadFrameTraced reads and decodes the next frame along with its trace
// context.
func (r *Reader) ReadFrameTraced() (Frame, TraceContext, error) {
	body, err := r.ReadBody()
	if err != nil {
		return nil, TraceContext{}, err
	}
	return DecodeBody(body)
}

// ReadBody reads the next frame's body into the reader's internal buffer
// and returns it without decoding. The slice is only valid until the next
// read call. Fixed-size bodies land in a fixed inline array; columnar
// bodies use a second buffer that is allocated on first use and reused for
// the life of the reader, so steady-state reads allocate nothing.
func (r *Reader) ReadBody() ([]byte, error) {
	head := r.buf[:headerBytes]
	if _, err := io.ReadFull(r.r, head); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: EOF inside length prefix", ErrTruncated)
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	n, err := bodyLen(head)
	if err != nil {
		return nil, err
	}
	var body []byte
	if n <= MaxFrameBytes {
		body = r.buf[headerBytes : headerBytes+n]
	} else {
		if cap(r.big) < n {
			// Grow geometrically to the declared size: steady-state streams
			// reuse the buffer, and a reader of small batches never pays for
			// the full MaxBatchFrameBytes cap.
			r.big = make([]byte, min(max(2*cap(r.big), n), MaxBatchFrameBytes))
		}
		body = r.big[:n]
	}
	if _, err := io.ReadFull(r.r, body); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: EOF inside %d-byte body", ErrTruncated, n)
		}
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	return body, nil
}
