// Block compression for batch frames: a small, stdlib-only LZ77 codec in
// the LZ4 block format family (greedy hash-chain matcher, token byte with
// nibble-encoded literal/match lengths, 2-byte little-endian offsets).
//
// Rolling our own — rather than compress/flate — buys a property the
// differential tests rely on: the encoder is deterministic by
// construction. Output bytes are a pure function of the input block (one
// fixed hash function, one greedy parse, no heuristics keyed to internal
// buffer states), so identical batches encode identically across runs, Go
// versions and architectures, and golden-byte tests can pin the encoding.
// Like goXRPLd's peer-message compression, a block is only sent compressed
// when compression actually shrank it: CompressBlock returns nil on
// expansion and the caller falls back to the raw form.
//
// The decoder never panics on adversarial input: every read is
// bounds-checked, offsets must point inside the produced output, and the
// caller supplies a hard output cap so a malicious block cannot expand
// beyond the frame limits (no decompression bombs).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// MinCompressibleSize is the smallest raw batch payload the encoder
// attempts to compress. Below it the token/offset overhead dominates any
// plausible saving, so batches stay raw (mirroring the threshold idiom in
// production peer-message compressors).
const MinCompressibleSize = 64

// ErrCompression marks a malformed compressed block: truncated sequence,
// out-of-range match offset, or output beyond the caller's cap.
var ErrCompression = errors.New("wire: malformed compressed block")

const (
	// zMinMatch is the shortest back-reference worth a sequence: token +
	// offset cost 3 bytes, so 4-byte matches are the break-even floor.
	zMinMatch = 4
	// zHashBits sizes the match table: 8 KiB of positions, plenty for
	// payloads capped at MaxBatchFrameBytes.
	zHashBits = 13
	// zMaxOffset is the farthest back-reference a 2-byte offset reaches.
	zMaxOffset = 1<<16 - 1
)

// zHash maps the 4 bytes at the match point into the table index
// (multiplicative hashing by the 32-bit golden-ratio constant).
func zHash(v uint32) uint32 { return v * 2654435761 >> (32 - zHashBits) }

// appendVarLen appends an LZ4-style length extension: runs of 255 with a
// final byte < 255.
func appendVarLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// readVarLen reads a length extension at src[off:], bounding the
// accumulated value by max so corrupt runs cannot overflow.
func readVarLen(src []byte, off, max int) (int, int, error) {
	v := 0
	for {
		if off >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length run", ErrCompression)
		}
		b := src[off]
		off++
		v += int(b)
		if v > max {
			return 0, 0, fmt.Errorf("%w: length run exceeds %d", ErrCompression, max)
		}
		if b < 255 {
			return v, off, nil
		}
	}
}

// appendSequence emits one [token][litLen ext][literals][offset][matchLen
// ext] sequence; matchLen == 0 marks the trailing literal-only sequence
// (no offset follows).
func appendSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	ext := 0
	if matchLen > 0 {
		ext = matchLen - zMinMatch
		if ext >= 15 {
			token |= 15
		} else {
			token |= byte(ext)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendVarLen(dst, litLen-15)
	}
	dst = append(dst, literals...)
	if matchLen > 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(offset))
		if ext >= 15 {
			dst = appendVarLen(dst, ext-15)
		}
	}
	return dst
}

// zTable is the encoder's match table, reused across calls through
// zTables so a call neither zeroes nor allocates 32 KiB. Slots hold
// base+pos+1 for a position pos stored by the call that ran at base: a
// slot is live for the current call iff it exceeds the call's base, so
// every slot an earlier call wrote reads as empty without being cleared.
// Each call advances base by its input length; the table is cleared and
// base restarts at 0 before it could reach 2^30, far from int32 overflow.
type zTable struct {
	slots [1 << zHashBits]int32
	base  int32
}

// zResetBase is the base at which a reused table is cleared instead of
// advanced.
const zResetBase = 1 << 30

var zTables = sync.Pool{New: func() any { return new(zTable) }}

// CompressBlock appends a compressed copy of src to dst and returns the
// extended slice, or nil when the compressed form would not be strictly
// smaller than src (the caller then sends the block raw). Deterministic:
// the output depends only on src.
func CompressBlock(src, dst []byte) []byte {
	if len(src) < zMinMatch*2 {
		return nil
	}
	t := zTables.Get().(*zTable)
	defer zTables.Put(t)
	return t.compress(src, dst)
}

// compress is CompressBlock's greedy parse on the reusable table t.
func (t *zTable) compress(src, dst []byte) []byte {
	if int64(t.base)+int64(len(src)) >= zResetBase {
		clear(t.slots[:])
		t.base = 0
	}
	base := t.base
	t.base += int32(len(src))
	table := &t.slots
	start := len(dst)
	// Stop matching zMinMatch before the end so the 4-byte loads below
	// stay in bounds.
	limit := len(src) - zMinMatch
	anchor, i := 0, 0
	for i <= limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := zHash(v)
		cand := -1
		if slot := table[h]; slot > base {
			cand = int(slot-base) - 1
		}
		table[h] = base + int32(i+1)
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
		if len(dst)-start >= len(src) {
			return nil
		}
	}
	dst = appendSequence(dst, src[anchor:], 0, 0)
	if len(dst)-start >= len(src) {
		return nil
	}
	return dst
}

// DecompressBlock appends the decompression of src to dst, refusing to
// produce more than maxOut bytes beyond dst's initial length. Adversarial
// input surfaces as ErrCompression, never a panic.
func DecompressBlock(src, dst []byte, maxOut int) ([]byte, error) {
	base := len(dst)
	off := 0
	for off < len(src) {
		token := src[off]
		off++
		lit := int(token >> 4)
		if lit == 15 {
			ext, noff, err := readVarLen(src, off, maxOut)
			if err != nil {
				return nil, err
			}
			lit += ext
			off = noff
		}
		if off+lit > len(src) {
			return nil, fmt.Errorf("%w: truncated literals", ErrCompression)
		}
		if len(dst)-base+lit > maxOut {
			return nil, fmt.Errorf("%w: output exceeds %d bytes", ErrCompression, maxOut)
		}
		dst = append(dst, src[off:off+lit]...)
		off += lit
		if off == len(src) {
			// Trailing literal-only sequence: the stream ends here.
			return dst, nil
		}
		if off+2 > len(src) {
			return nil, fmt.Errorf("%w: truncated match offset", ErrCompression)
		}
		offset := int(binary.LittleEndian.Uint16(src[off:]))
		off += 2
		if offset == 0 || offset > len(dst)-base {
			return nil, fmt.Errorf("%w: match offset %d outside output", ErrCompression, offset)
		}
		ml := int(token & 15)
		if ml == 15 {
			ext, noff, err := readVarLen(src, off, maxOut)
			if err != nil {
				return nil, err
			}
			ml += ext
			off = noff
		}
		ml += zMinMatch
		if len(dst)-base+ml > maxOut {
			return nil, fmt.Errorf("%w: output exceeds %d bytes", ErrCompression, maxOut)
		}
		// Byte-at-a-time copy: overlapping matches (offset < length) are
		// legal and replicate the run, as in every LZ77 family codec.
		start := len(dst) - offset
		for j := 0; j < ml; j++ {
			dst = append(dst, dst[start+j])
		}
	}
	return dst, nil
}
