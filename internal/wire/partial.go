// Partial-verdict frames: the aggregation tier's wire protocol. An
// aggregator terminates a window of node connections, folds their votes
// into per-trial partial sums, and forwards those sums upstream as
// PartialVerdict frames — the monoid elements whose merge at the root is
// exactly the flat-star tally. AggHello is the aggregator's handshake,
// announcing the node-ID window it speaks for.
//
// Raw PartialVerdict payload layout (varints are minimal LEB128):
//
//	[agg u32 BE]          sender's aggregator ID, echoed from AggHello
//	[flags u8]            bit0 = sketch mode, other bits zero
//	[count uvarint]       1 .. MaxPartialEntries
//	[trial column]        first value uvarint, then zigzag-uvarint deltas
//	[votes column]        same encoding (votes seen for the trial, ≥ 1)
//	[rejects column]      same encoding (≤ the votes column entry)
//	sketch mode:
//	  [samples column]    u64 sums, wrapping zigzag deltas
//	  [collisions column] same encoding
//
// Like VoteBatch, the encoding is canonical and bijective: minimal
// varints, zero spare flag bits, per-entry validity (votes ≥ 1,
// rejects ≤ votes) and exact payload length are all enforced at decode,
// so every decodable frame re-encodes to the identical bytes —
// FuzzPartialVerdictRoundTrip pins this. Both types use the one frame
// layout of wire.go.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MaxPartialEntries caps the per-trial entries one PartialVerdict may
// carry. Worst-case encoding (adversarial values, sketch mode, ≤ 35
// bytes per entry) stays under MaxBatchFrameBytes with room for the
// trace suffix.
const MaxPartialEntries = 2048

// maxPartialPayloadBytes bounds a partial payload so the full frame body
// (version + type + payload + trace suffix) fits MaxBatchFrameBytes.
const maxPartialPayloadBytes = MaxBatchFrameBytes - 2 - traceContextBytes

// AggHello opens an aggregator's upstream session: it announces the
// contiguous node-ID window [Lo, Hi) whose votes the sender terminates
// and folds. The receiver validates K/Trials like a node Hello, checks
// the window against its own, and keys partial-sum dedup on Agg.
type AggHello struct {
	// Agg is the sender's aggregator ID, unique among the receiver's
	// aggregator children.
	Agg uint32
	// K and Trials echo the session shape, validated like Hello.
	K      uint32
	Trials uint32
	// Lo and Hi bound the node-ID window [Lo, Hi) this aggregator serves.
	Lo uint32
	Hi uint32
}

// PartialEntry is one trial's folded sums inside a PartialVerdict.
type PartialEntry struct {
	// Trial indexes the Monte-Carlo trial in [0, Trials).
	Trial uint32
	// Votes counts the distinct (trial, node) votes folded into this
	// entry — at least 1, at most the width of the sender's window.
	Votes uint32
	// Rejects counts the rejecting votes among them (≤ Votes). Both
	// decision rules fold through this one sum: threshold compares the
	// merged total against T, and AND accepts iff it stays zero.
	Rejects uint32
	// Samples and Collisions are the sketch-mode sums of the folded
	// nodes' raw collision statistics; zero in vote mode.
	Samples    uint64
	Collisions uint64
}

// PartialVerdict carries an aggregator's per-trial partial sums upstream.
// The receiver merges each entry into its own tally exactly once per
// (trial, Agg) — retransmitted frames are deduplicated, so retries are
// idempotent.
type PartialVerdict struct {
	// Agg echoes the sender's AggHello identity.
	Agg uint32
	// Sketch marks sketch-mode sums (samples/collisions columns present).
	Sketch bool
	// Entries are the per-trial sums, at most MaxPartialEntries.
	Entries []PartialEntry
}

func (AggHello) Type() byte       { return TypeAggHello }
func (PartialVerdict) Type() byte { return TypePartialVerdict }

func (AggHello) payloadSize() int { return 20 }

func (h AggHello) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Agg)
	dst = binary.BigEndian.AppendUint32(dst, h.K)
	dst = binary.BigEndian.AppendUint32(dst, h.Trials)
	dst = binary.BigEndian.AppendUint32(dst, h.Lo)
	return binary.BigEndian.AppendUint32(dst, h.Hi)
}

func (h *AggHello) decodePayload(p []byte) error {
	h.Agg = binary.BigEndian.Uint32(p[0:4])
	h.K = binary.BigEndian.Uint32(p[4:8])
	h.Trials = binary.BigEndian.Uint32(p[8:12])
	h.Lo = binary.BigEndian.Uint32(p[12:16])
	h.Hi = binary.BigEndian.Uint32(p[16:20])
	if h.Lo >= h.Hi {
		return fmt.Errorf("%w: agghello window [%d, %d)", ErrFrameSize, h.Lo, h.Hi)
	}
	return nil
}

// Partial column accessors for the shared delta codec. Columns are
// encoded as wrapping uint64 deltas (first value plain, then
// zigzag(v-prev) with mod-2⁶⁴ arithmetic), which is bijective over the
// full u64 domain; u32 columns additionally bound every reconstructed
// value.
func appendPartialColumn(dst []byte, es []PartialEntry, get func(*PartialEntry) uint64) []byte {
	prev := get(&es[0])
	dst = binary.AppendUvarint(dst, prev)
	for i := 1; i < len(es); i++ {
		v := get(&es[i])
		dst = binary.AppendUvarint(dst, zigzag(int64(v-prev)))
		prev = v
	}
	return dst
}

func partialColumnSize(es []PartialEntry, get func(*PartialEntry) uint64) int {
	prev := get(&es[0])
	n := uvarintLen(prev)
	for i := 1; i < len(es); i++ {
		v := get(&es[i])
		n += uvarintLen(zigzag(int64(v - prev)))
		prev = v
	}
	return n
}

// decodePartialColumn fills one field of es from a delta column at
// p[off:], bounding every reconstructed value by maxVal.
func decodePartialColumn(p []byte, off int, es []PartialEntry, set func(*PartialEntry, uint64), maxVal uint64) (int, error) {
	v, off, err := readUvarint(p, off)
	if err != nil {
		return 0, err
	}
	if v > maxVal {
		return 0, fmt.Errorf("%w: partial column value %d out of range", ErrFrameSize, v)
	}
	set(&es[0], v)
	prev := v
	for i := 1; i < len(es); i++ {
		u, noff, err := readUvarint(p, off)
		if err != nil {
			return 0, err
		}
		val := prev + uint64(unzigzag(u)) // wrapping: one delta per (prev, val) pair
		if val > maxVal {
			return 0, fmt.Errorf("%w: partial column value %d out of range", ErrFrameSize, val)
		}
		set(&es[i], val)
		prev = val
		off = noff
	}
	return off, nil
}

func getTrial(e *PartialEntry) uint64        { return uint64(e.Trial) }
func getVotes(e *PartialEntry) uint64        { return uint64(e.Votes) }
func getRejects(e *PartialEntry) uint64      { return uint64(e.Rejects) }
func getSamples(e *PartialEntry) uint64      { return e.Samples }
func getCollisions(e *PartialEntry) uint64   { return e.Collisions }
func setTrial(e *PartialEntry, v uint64)     { e.Trial = uint32(v) }
func setVotes(e *PartialEntry, v uint64)     { e.Votes = uint32(v) }
func setRejects(e *PartialEntry, v uint64)   { e.Rejects = uint32(v) }
func setSamples(e *PartialEntry, v uint64)   { e.Samples = v }
func setCollision(e *PartialEntry, v uint64) { e.Collisions = v }

func (p PartialVerdict) payloadSize() int {
	n := 4 + 1 + uvarintLen(uint64(len(p.Entries)))
	n += partialColumnSize(p.Entries, getTrial)
	n += partialColumnSize(p.Entries, getVotes)
	n += partialColumnSize(p.Entries, getRejects)
	if p.Sketch {
		n += partialColumnSize(p.Entries, getSamples)
		n += partialColumnSize(p.Entries, getCollisions)
	}
	return n
}

func (p PartialVerdict) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, p.Agg)
	flags := byte(0)
	if p.Sketch {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(p.Entries)))
	dst = appendPartialColumn(dst, p.Entries, getTrial)
	dst = appendPartialColumn(dst, p.Entries, getVotes)
	dst = appendPartialColumn(dst, p.Entries, getRejects)
	if p.Sketch {
		dst = appendPartialColumn(dst, p.Entries, getSamples)
		dst = appendPartialColumn(dst, p.Entries, getCollisions)
	}
	return dst
}

func (p *PartialVerdict) decodePayload(b []byte) error {
	if len(b) < 6 {
		return fmt.Errorf("%w: %d-byte partial payload", ErrFrameSize, len(b))
	}
	p.Agg = binary.BigEndian.Uint32(b[0:4])
	flags := b[4]
	if flags&^1 != 0 {
		return fmt.Errorf("%w: partial flags %#x", ErrFrameSize, flags)
	}
	p.Sketch = flags&1 != 0
	cnt, off, err := readUvarint(b, 5)
	if err != nil {
		return err
	}
	if cnt == 0 {
		return fmt.Errorf("%w: empty partial verdict", ErrFrameSize)
	}
	if cnt > MaxPartialEntries {
		return fmt.Errorf("%w: partial of %d entries (limit %d)", ErrOversize, cnt, MaxPartialEntries)
	}
	count := int(cnt)
	if cap(p.Entries) < count {
		p.Entries = make([]PartialEntry, count)
	} else {
		p.Entries = p.Entries[:count]
		// Scratch reuse: sketch sums from a previous decode must not leak
		// into a vote-mode frame.
		clear(p.Entries)
	}
	if off, err = decodePartialColumn(b, off, p.Entries, setTrial, math.MaxUint32); err != nil {
		return err
	}
	if off, err = decodePartialColumn(b, off, p.Entries, setVotes, math.MaxUint32); err != nil {
		return err
	}
	if off, err = decodePartialColumn(b, off, p.Entries, setRejects, math.MaxUint32); err != nil {
		return err
	}
	if p.Sketch {
		if off, err = decodePartialColumn(b, off, p.Entries, setSamples, math.MaxUint64); err != nil {
			return err
		}
		if off, err = decodePartialColumn(b, off, p.Entries, setCollision, math.MaxUint64); err != nil {
			return err
		}
	}
	if off != len(b) {
		return fmt.Errorf("%w: %d trailing partial bytes", ErrFrameSize, len(b)-off)
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.Votes == 0 {
			return fmt.Errorf("%w: partial entry for trial %d with zero votes", ErrFrameSize, e.Trial)
		}
		if e.Rejects > e.Votes {
			return fmt.Errorf("%w: partial entry with %d rejects over %d votes", ErrFrameSize, e.Rejects, e.Votes)
		}
	}
	return nil
}

// AppendPartialSession appends p's wire encoding bound to session and
// carrying tc to dst, enforcing the entry-count and payload-size caps the
// decoder will apply. Partial payloads are never block-compressed: a
// typical entry is a handful of delta varints, far below
// MinCompressibleSize per entry.
func AppendPartialSession(dst []byte, p *PartialVerdict, session uint32, tc TraceContext) ([]byte, error) {
	if len(p.Entries) == 0 {
		return dst, fmt.Errorf("wire: empty partial verdict")
	}
	if len(p.Entries) > MaxPartialEntries {
		return dst, fmt.Errorf("%w: partial of %d entries (limit %d)", ErrOversize, len(p.Entries), MaxPartialEntries)
	}
	limit := maxPartialPayloadBytes
	if session != 0 {
		limit -= sessionBytes
	}
	if size := p.payloadSize(); size > limit {
		return dst, fmt.Errorf("%w: %d-byte partial payload (limit %d)", ErrOversize, size, limit)
	}
	return AppendSession(dst, p, session, tc), nil
}

// AppendPartial is AppendPartialSession without a session.
func AppendPartial(dst []byte, p *PartialVerdict, tc TraceContext) ([]byte, error) {
	return AppendPartialSession(dst, p, 0, tc)
}
