// Vote batching: the VoteBatch frame packs many (trial, node, vote) —
// or (trial, node, samples, collisions) sketch — tuples into one wire
// frame, amortizing the 4-byte prefix, the syscall, and the referee's
// per-frame bookkeeping across up to MaxBatchVotes votes.
//
// Raw payload layout (all varints are unsigned LEB128, minimal-length):
//
//	[flags u8]            bit0 = sketch mode, other bits zero
//	[count uvarint]       1 .. MaxBatchVotes
//	[trial column]        first value uvarint, then zigzag-uvarint deltas
//	[node column]         same encoding
//	sketch mode:
//	  [samples column]    same encoding
//	  [collisions column] same encoding
//	vote mode:
//	  [reject bitset]     ⌈count/8⌉ bytes, LSB-first, trailing bits zero
//
// Delta columns exploit the cluster's access pattern — a node sends its
// own votes in trial order, so trial deltas are +1 and node deltas are 0,
// one byte each — without assuming it: any uint32 values round-trip. The
// decoder enforces minimal varints, zero trailing bitset bits, zero spare
// flag bits and exact payload length, so the raw encoding is bijective:
// every decodable batch re-encodes to the identical bytes, the property
// FuzzVoteBatchRoundTrip pins. The compressed form (TypeVoteBatchZ,
// compress.go) wraps this same payload and is only emitted when it is
// strictly smaller.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MaxBatchVotes caps the tuples one VoteBatch may carry. Worst-case
// encoding (adversarial values, sketch mode) stays under
// MaxBatchFrameBytes with room for the trace suffix.
const MaxBatchVotes = 4096

// maxBatchPayloadBytes bounds a batch payload so the full frame body
// (version + type + payload + trace suffix) fits MaxBatchFrameBytes; a
// session-bound batch gives up sessionBytes of it to the session suffix.
const maxBatchPayloadBytes = MaxBatchFrameBytes - 2 - traceContextBytes

// BatchVote is one tuple inside a VoteBatch. In vote mode only Trial,
// Node and Reject are carried; in sketch mode Trial, Node, Samples and
// Collisions are carried and the referee derives the vote server-side
// (reject iff Collisions > 0), mirroring the single-frame Sketch type.
type BatchVote struct {
	Trial      uint32
	Node       uint32
	Reject     bool
	Samples    uint32
	Collisions uint32
}

// VoteBatch is a batch of votes from one node. Compressed and Saved are
// decoder outputs (whether the frame arrived as TypeVoteBatchZ and how
// many wire bytes that saved); they are not part of the encoding.
type VoteBatch struct {
	// Sketch selects the tuple shape: collision statistics instead of a
	// reject bit.
	Sketch bool
	// Votes are the batched tuples, at most MaxBatchVotes.
	Votes []BatchVote
	// Compressed reports (after decode) that the batch arrived
	// block-compressed.
	Compressed bool
	// Saved reports (after decode) the wire bytes compression saved
	// versus the raw batch encoding.
	Saved int
}

// Type implements Frame. A VoteBatch always identifies as TypeVoteBatch;
// the compressed type byte is an encoding detail chosen at Append time.
func (VoteBatch) Type() byte { return TypeVoteBatch }

// Column selectors for the shared delta-encoding helpers.
const (
	colTrial = iota
	colNode
	colSamples
	colCollisions
)

func colVal(v *BatchVote, col int) uint32 {
	switch col {
	case colTrial:
		return v.Trial
	case colNode:
		return v.Node
	case colSamples:
		return v.Samples
	default:
		return v.Collisions
	}
}

func setColVal(v *BatchVote, col int, x uint32) {
	switch col {
	case colTrial:
		v.Trial = x
	case colNode:
		v.Node = x
	case colSamples:
		v.Samples = x
	default:
		v.Collisions = x
	}
}

// zigzag maps a signed delta to an unsigned varint-friendly value
// (0,-1,1,-2,... → 0,1,2,3,...); unzigzag inverts it. Both are bijections,
// so delta columns stay canonical.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the minimal LEB128 length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint decodes a minimal-length uvarint at p[off:], rejecting
// truncated, overlong and non-minimal encodings.
func readUvarint(p []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad varint at batch offset %d", ErrFrameSize, off)
	}
	if n != uvarintLen(v) {
		return 0, 0, fmt.Errorf("%w: non-minimal varint at batch offset %d", ErrFrameSize, off)
	}
	return v, off + n, nil
}

func appendColumn(dst []byte, votes []BatchVote, col int) []byte {
	if len(votes) == 0 {
		return dst
	}
	prev := int64(colVal(&votes[0], col))
	dst = binary.AppendUvarint(dst, uint64(prev))
	for i := 1; i < len(votes); i++ {
		v := int64(colVal(&votes[i], col))
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

func columnSize(votes []BatchVote, col int) int {
	if len(votes) == 0 {
		return 0
	}
	prev := int64(colVal(&votes[0], col))
	n := uvarintLen(uint64(prev))
	for i := 1; i < len(votes); i++ {
		v := int64(colVal(&votes[i], col))
		n += uvarintLen(zigzag(v - prev))
		prev = v
	}
	return n
}

// decodeColumn fills one field of votes from a delta column at p[off:],
// enforcing that every reconstructed value fits uint32.
func decodeColumn(p []byte, off int, votes []BatchVote, col int) (int, error) {
	first, off, err := readUvarint(p, off)
	if err != nil {
		return 0, err
	}
	if first > math.MaxUint32 {
		return 0, fmt.Errorf("%w: batch column value %d out of range", ErrFrameSize, first)
	}
	setColVal(&votes[0], col, uint32(first))
	prev := int64(first)
	for i := 1; i < len(votes); i++ {
		u, noff, err := readUvarint(p, off)
		if err != nil {
			return 0, err
		}
		d := unzigzag(u)
		// |d| ≤ 2³² keeps prev+d inside int64; the value check below does
		// the rest.
		if d > math.MaxUint32 || d < -math.MaxUint32 {
			return 0, fmt.Errorf("%w: batch column delta %d out of range", ErrFrameSize, d)
		}
		val := prev + d
		if val < 0 || val > math.MaxUint32 {
			return 0, fmt.Errorf("%w: batch column value %d out of range", ErrFrameSize, val)
		}
		setColVal(&votes[i], col, uint32(val))
		prev = val
		off = noff
	}
	return off, nil
}

func (b VoteBatch) payloadSize() int {
	n := 1 + uvarintLen(uint64(len(b.Votes)))
	n += columnSize(b.Votes, colTrial) + columnSize(b.Votes, colNode)
	if b.Sketch {
		n += columnSize(b.Votes, colSamples) + columnSize(b.Votes, colCollisions)
	} else {
		n += (len(b.Votes) + 7) / 8
	}
	return n
}

func (b VoteBatch) appendPayload(dst []byte) []byte {
	flags := byte(0)
	if b.Sketch {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(b.Votes)))
	dst = appendColumn(dst, b.Votes, colTrial)
	dst = appendColumn(dst, b.Votes, colNode)
	if b.Sketch {
		dst = appendColumn(dst, b.Votes, colSamples)
		dst = appendColumn(dst, b.Votes, colCollisions)
		return dst
	}
	nb := (len(b.Votes) + 7) / 8
	base := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i := range b.Votes {
		if b.Votes[i].Reject {
			dst[base+i>>3] |= 1 << (i & 7)
		}
	}
	return dst
}

func (b *VoteBatch) decodePayload(p []byte) error {
	b.Compressed, b.Saved = false, 0
	if len(p) < 2 {
		return fmt.Errorf("%w: %d-byte batch payload", ErrFrameSize, len(p))
	}
	flags := p[0]
	if flags&^1 != 0 {
		return fmt.Errorf("%w: batch flags %#x", ErrFrameSize, flags)
	}
	b.Sketch = flags&1 != 0
	cnt, off, err := readUvarint(p, 1)
	if err != nil {
		return err
	}
	if cnt == 0 {
		return fmt.Errorf("%w: empty batch", ErrFrameSize)
	}
	if cnt > MaxBatchVotes {
		return fmt.Errorf("%w: batch of %d votes (limit %d)", ErrOversize, cnt, MaxBatchVotes)
	}
	count := int(cnt)
	if cap(b.Votes) < count {
		b.Votes = make([]BatchVote, count)
	} else {
		b.Votes = b.Votes[:count]
		// Scratch reuse: stale fields from the mode not carried by this
		// batch must not leak through.
		clear(b.Votes)
	}
	if off, err = decodeColumn(p, off, b.Votes, colTrial); err != nil {
		return err
	}
	if off, err = decodeColumn(p, off, b.Votes, colNode); err != nil {
		return err
	}
	if b.Sketch {
		if off, err = decodeColumn(p, off, b.Votes, colSamples); err != nil {
			return err
		}
		if off, err = decodeColumn(p, off, b.Votes, colCollisions); err != nil {
			return err
		}
	} else {
		nb := (count + 7) / 8
		if len(p)-off < nb {
			return fmt.Errorf("%w: batch bitset truncated", ErrFrameSize)
		}
		bits := p[off : off+nb]
		if r := count & 7; r != 0 && bits[nb-1]>>r != 0 {
			return fmt.Errorf("%w: nonzero trailing bitset bits", ErrFrameSize)
		}
		for i := range b.Votes {
			b.Votes[i].Reject = bits[i>>3]>>(i&7)&1 == 1
		}
		off += nb
	}
	if off != len(p) {
		return fmt.Errorf("%w: %d trailing batch bytes", ErrFrameSize, len(p)-off)
	}
	return nil
}

// BatchVoteSize returns the payload bytes appending v to a batch adds:
// the per-column varint costs given the previous entry (nil when v is
// first). It excludes the flags/count/bitset overhead — a watermark
// estimate for flush decisions, not an exact encoder.
func BatchVoteSize(prev, v *BatchVote, sketch bool) int {
	if prev == nil {
		n := uvarintLen(uint64(v.Trial)) + uvarintLen(uint64(v.Node))
		if sketch {
			n += uvarintLen(uint64(v.Samples)) + uvarintLen(uint64(v.Collisions))
		}
		return n
	}
	n := uvarintLen(zigzag(int64(v.Trial)-int64(prev.Trial))) +
		uvarintLen(zigzag(int64(v.Node)-int64(prev.Node)))
	if sketch {
		n += uvarintLen(zigzag(int64(v.Samples)-int64(prev.Samples))) +
			uvarintLen(zigzag(int64(v.Collisions)-int64(prev.Collisions)))
	}
	return n
}

// BatchEncoder encodes VoteBatch frames with reusable scratch buffers and
// an opportunistic compression pass: the compressed form is emitted only
// when the block compressor both succeeds and strictly shrinks the
// payload, and every compressed payload is decompressed and compared
// before it is trusted (a failed roundtrip — which would indicate a
// compressor bug — falls back to the raw form rather than corrupting the
// stream). The zero value is ready to use.
type BatchEncoder struct {
	raw    []byte
	comp   []byte
	verify []byte
}

// AppendSession appends b's wire encoding bound to session and carrying
// tc to dst. With compress set, payloads of at least MinCompressibleSize
// bytes are block-compressed when that saves wire bytes; smaller or
// incompressible payloads encode raw.
func (e *BatchEncoder) AppendSession(dst []byte, b *VoteBatch, session uint32, tc TraceContext, compress bool) ([]byte, error) {
	if len(b.Votes) == 0 {
		return dst, fmt.Errorf("wire: empty vote batch")
	}
	if len(b.Votes) > MaxBatchVotes {
		return dst, fmt.Errorf("%w: batch of %d votes (limit %d)", ErrOversize, len(b.Votes), MaxBatchVotes)
	}
	size, limit := b.payloadSize(), maxBatchPayloadBytes
	if session != 0 {
		limit -= sessionBytes
	}
	if size > limit {
		return dst, fmt.Errorf("%w: %d-byte batch payload (limit %d)", ErrOversize, size, limit)
	}
	if !compress || size < MinCompressibleSize {
		return AppendSession(dst, b, session, tc), nil
	}
	e.raw = b.appendPayload(e.raw[:0])
	if comp := CompressBlock(e.raw, e.comp[:0]); comp != nil {
		e.comp = comp
		zsize := uvarintLen(uint64(size)) + len(comp)
		if zsize < size && e.roundTrips(comp, size) {
			return appendFrame(dst, TypeVoteBatchZ, zsize, func(d []byte) []byte {
				return append(binary.AppendUvarint(d, uint64(size)), comp...)
			}, session, tc), nil
		}
	}
	// Raw fallback, reusing the already-encoded payload.
	return appendFrame(dst, TypeVoteBatch, size, func(d []byte) []byte {
		return append(d, e.raw...)
	}, session, tc), nil
}

// Append is AppendSession without a session.
func (e *BatchEncoder) Append(dst []byte, b *VoteBatch, tc TraceContext, compress bool) ([]byte, error) {
	return e.AppendSession(dst, b, 0, tc, compress)
}

// roundTrips verifies comp decompresses back to the rawLen bytes sitting
// in e.raw.
func (e *BatchEncoder) roundTrips(comp []byte, rawLen int) bool {
	out, err := DecompressBlock(comp, e.verify[:0], rawLen)
	if err != nil || len(out) != rawLen {
		return false
	}
	e.verify = out
	for i := range out {
		if out[i] != e.raw[i] {
			return false
		}
	}
	return true
}

// AppendBatch is the convenience form of BatchEncoder.Append with
// throwaway scratch.
func AppendBatch(dst []byte, b *VoteBatch, tc TraceContext, compress bool) ([]byte, error) {
	var e BatchEncoder
	return e.Append(dst, b, tc, compress)
}

// decodeZPayload parses a TypeVoteBatchZ payload — uvarint raw length
// followed by the compressed block — decompressing into *zbuf (reused
// across decodes) and decoding the raw batch payload from there. It
// records the wire bytes the compression saved. Canonicality checks: the
// raw length must be in the compressible range and the compressed payload
// strictly smaller than it (our encoder never emits anything else).
func (b *VoteBatch) decodeZPayload(payload []byte, zbuf *[]byte) error {
	rawLen64, off, err := readUvarint(payload, 0)
	if err != nil {
		return err
	}
	rawLen := int(rawLen64)
	if rawLen64 < MinCompressibleSize || rawLen64 > maxBatchPayloadBytes {
		return fmt.Errorf("%w: compressed batch raw length %d", ErrFrameSize, rawLen64)
	}
	if len(payload) >= rawLen {
		return fmt.Errorf("%w: compressed batch (%d bytes) not smaller than raw (%d)",
			ErrFrameSize, len(payload), rawLen)
	}
	out, err := DecompressBlock(payload[off:], (*zbuf)[:0], rawLen)
	if cap(out) > cap(*zbuf) {
		*zbuf = out
	}
	if err != nil {
		return err
	}
	if len(out) != rawLen {
		return fmt.Errorf("%w: compressed batch decompressed to %d bytes, want %d",
			ErrFrameSize, len(out), rawLen)
	}
	if err := b.decodePayload(out); err != nil {
		return err
	}
	b.Compressed, b.Saved = true, rawLen-len(payload)
	return nil
}
