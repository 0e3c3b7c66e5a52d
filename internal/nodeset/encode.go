package nodeset

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format for a Set: a uvarint word count followed by that many
// little-endian 64-bit words. Trailing zero words are trimmed before
// encoding, so equal sets always encode to identical bytes — epoch lists
// piggybacked on protocol messages stay canonical and tiny (paper,
// footnote 1).

// ErrTruncated is returned by Decode when the input ends mid-value.
var ErrTruncated = errors.New("nodeset: truncated encoding")

// AppendEncode appends the canonical encoding of s to dst and returns the
// extended slice.
func (s Set) AppendEncode(dst []byte) []byte {
	hi := s.hi
	for len(hi) > 0 && hi[len(hi)-1] == 0 {
		hi = hi[:len(hi)-1]
	}
	if len(hi) == 0 && s.lo == 0 {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(1+len(hi)))
	dst = binary.LittleEndian.AppendUint64(dst, s.lo)
	for _, w := range hi {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Encode returns the canonical binary encoding of s.
func (s Set) Encode() []byte {
	return s.AppendEncode(nil)
}

// Decode parses a set from the front of b, returning the set and the number
// of bytes consumed. Decoding is strict: only the canonical form produced
// by AppendEncode is accepted — a minimally-encoded word count and no
// trailing zero words — so every decoded set re-encodes to exactly the
// bytes it came from.
func Decode(b []byte) (Set, int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return Set{}, 0, ErrTruncated
	}
	if k > 1 && n>>(7*(k-1)) == 0 {
		return Set{}, 0, fmt.Errorf("nodeset: non-minimal word count encoding")
	}
	if n > MaxNodes/wordBits {
		return Set{}, 0, fmt.Errorf("nodeset: encoded word count %d exceeds maximum", n)
	}
	need := k + int(n)*8
	if len(b) < need {
		return Set{}, 0, ErrTruncated
	}
	var s Set
	if n > 0 {
		s.lo = binary.LittleEndian.Uint64(b[k:])
	}
	if n > 1 {
		s.hi = make([]uint64, n-1)
		for i := range s.hi {
			s.hi[i] = binary.LittleEndian.Uint64(b[k+8+i*8:])
		}
	}
	if n > 0 && s.Word(int(n)-1) == 0 {
		return Set{}, 0, fmt.Errorf("nodeset: non-canonical encoding with trailing zero word")
	}
	return s, need, nil
}
