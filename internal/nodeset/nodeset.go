// Package nodeset provides node identifiers and ordered node sets for
// replica-control protocols.
//
// All protocols in this module assume that every node replicating a data
// item has a name and that names are linearly ordered (paper, Section 1).
// Set represents such an ordered set of node names backed by a bit vector,
// matching the paper's implementation note that "sets of nodes can be
// encoded very tightly as, for instance, a binary vector" (footnote 1).
package nodeset

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// ID is the name of a node. IDs are small non-negative integers; the linear
// order on IDs is the numeric order. The zero ID is a valid node name.
type ID int

// String returns the conventional textual form of an ID, e.g. "n3".
func (id ID) String() string { return fmt.Sprintf("n%d", int(id)) }

// MaxNodes bounds the universe of node IDs a Set can hold. 4096 nodes is
// far beyond any replication degree the protocols target while keeping the
// bit-vector representation small.
const MaxNodes = 4096

const wordBits = 64

// Set is an ordered set of node IDs backed by a bit vector. The zero value
// is an empty set ready to use. Sets are value types: methods that modify
// the receiver use pointer receivers; all others work on copies safely.
//
// The first word of the vector (IDs 0…63) lives in the struct itself, so a
// set drawn from those IDs — every epoch this repository builds — is one
// machine word that is copied, cloned and combined without touching the
// heap. IDs from 64 up spill into a slice, which value copies of a Set share
// the way they would share any slice: copy with Clone before modifying one
// of two copies in place.
type Set struct {
	lo uint64   // IDs 0…63
	hi []uint64 // hi[i] holds IDs 64·(i+1) … 64·(i+1)+63; nil below ID 64
}

// New returns a set containing the given IDs.
func New(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Range returns the set {lo, lo+1, ..., hi-1}. It panics if lo > hi.
func Range(lo, hi ID) Set {
	if lo > hi {
		panic(fmt.Sprintf("nodeset: invalid range [%d, %d)", lo, hi))
	}
	var s Set
	for id := lo; id < hi; id++ {
		s.Add(id)
	}
	return s
}

func checkID(id ID) {
	if id < 0 || id >= MaxNodes {
		panic(fmt.Sprintf("nodeset: ID %d out of range [0, %d)", int(id), MaxNodes))
	}
}

// bit is id's mask within its word.
func bit(id ID) uint64 { return 1 << (uint(id) % wordBits) }

// Add inserts id into the set.
func (s *Set) Add(id ID) {
	checkID(id)
	if id < wordBits {
		s.lo |= bit(id)
		return
	}
	w := int(id)/wordBits - 1
	for len(s.hi) <= w {
		s.hi = append(s.hi, 0)
	}
	s.hi[w] |= bit(id)
}

// Remove deletes id from the set. Removing an absent ID is a no-op.
func (s *Set) Remove(id ID) {
	checkID(id)
	if id < wordBits {
		s.lo &^= bit(id)
	} else if w := int(id)/wordBits - 1; w < len(s.hi) {
		s.hi[w] &^= bit(id)
	}
}

// Contains reports whether id is a member of the set.
func (s Set) Contains(id ID) bool {
	if id < 0 || id >= MaxNodes {
		return false
	}
	return s.Word(int(id)/wordBits)&bit(id) != 0
}

// Word returns the i-th 64-bit word of the bit vector (membership bits for
// IDs 64·i … 64·i+63); indexes past the vector read as zero. For sets drawn
// from 0..63 the zeroth word is a complete, allocation-free fingerprint of
// the set, which epoch-keyed layout caches exploit.
func (s Set) Word(i int) uint64 {
	if i == 0 {
		return s.lo
	}
	if i > 0 && i <= len(s.hi) {
		return s.hi[i-1]
	}
	return 0
}

// Len returns the number of members.
func (s Set) Len() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	if s.lo != 0 {
		return false
	}
	for _, w := range s.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if len(s.hi) > 0 {
		s.hi = append([]uint64(nil), s.hi...)
	}
	return s
}

// Equal reports whether s and t have the same members.
func (s Set) Equal(t Set) bool {
	if s.lo != t.lo {
		return false
	}
	long, short := s.hi, t.hi
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range long {
		var u uint64
		if i < len(short) {
			u = short[i]
		}
		if w != u {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := Set{lo: s.lo | t.lo}
	long, short := s.hi, t.hi
	if len(long) < len(short) {
		long, short = short, long
	}
	if len(long) > 0 {
		out.hi = append([]uint64(nil), long...)
		for i, w := range short {
			out.hi[i] |= w
		}
	}
	return out
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	out := Set{lo: s.lo & t.lo}
	if n := min(len(s.hi), len(t.hi)); n > 0 {
		out.hi = make([]uint64, n)
		for i := range out.hi {
			out.hi[i] = s.hi[i] & t.hi[i]
		}
	}
	return out
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	out := Set{lo: s.lo &^ t.lo}
	if len(s.hi) > 0 {
		out.hi = append([]uint64(nil), s.hi...)
		for i := 0; i < len(out.hi) && i < len(t.hi); i++ {
			out.hi[i] &^= t.hi[i]
		}
	}
	return out
}

// Subset reports whether every member of s is also in t.
func (s Set) Subset(t Set) bool {
	if s.lo&^t.lo != 0 {
		return false
	}
	for i, w := range s.hi {
		var u uint64
		if i < len(t.hi) {
			u = t.hi[i]
		}
		if w&^u != 0 {
			return false
		}
	}
	return true
}

// IntersectionLen returns |s ∩ t| without materializing the intersection:
// a word-wise AND plus popcount, performing no heap allocations. It is the
// hot-path form of s.Intersect(t).Len() for quorum threshold checks.
func (s Set) IntersectionLen(t Set) int {
	c := bits.OnesCount64(s.lo & t.lo)
	for i := 0; i < len(s.hi) && i < len(t.hi); i++ {
		c += bits.OnesCount64(s.hi[i] & t.hi[i])
	}
	return c
}

// ContainsAll reports whether every member of t is also in s — t ⊆ s, the
// argument-flipped alias of t.Subset(s) that reads naturally when s is the
// larger mask. Like Subset it is allocation-free.
func (s Set) ContainsAll(t Set) bool {
	return t.Subset(s)
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	if s.lo&t.lo != 0 {
		return true
	}
	for i := 0; i < len(s.hi) && i < len(t.hi); i++ {
		if s.hi[i]&t.hi[i] != 0 {
			return true
		}
	}
	return false
}

// IDs returns the members in increasing order.
func (s Set) IDs() []ID {
	return s.AppendIDs(make([]ID, 0, s.Len()))
}

// AppendIDs appends the members in increasing order to dst and returns the
// extended slice. It lets callers reuse a buffer across calls where IDs
// would allocate a fresh slice every time.
func (s Set) AppendIDs(dst []ID) []ID {
	for wi := 0; wi <= len(s.hi); wi++ {
		for w := s.Word(wi); w != 0; w &= w - 1 {
			dst = append(dst, ID(wi*wordBits+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// OrderedNumber returns the 1-based position of id in the increasing order
// of the set's members — the paper's ordered-number(V, s) function — and
// true, or 0 and false if id is not a member.
func (s Set) OrderedNumber(id ID) (int, bool) {
	if !s.Contains(id) {
		return 0, false
	}
	w := int(id) / wordBits
	pos := 1
	for i := 0; i < w; i++ {
		pos += bits.OnesCount64(s.Word(i))
	}
	pos += bits.OnesCount64(s.Word(w) & (bit(id) - 1))
	return pos, true
}

// Nth returns the n-th member (1-based) in increasing order, and true, or
// 0 and false if n is out of range.
func (s Set) Nth(n int) (ID, bool) {
	if n < 1 {
		return 0, false
	}
	remaining := n
	for wi := 0; wi <= len(s.hi); wi++ {
		w := s.Word(wi)
		c := bits.OnesCount64(w)
		if remaining > c {
			remaining -= c
			continue
		}
		for ; remaining > 1; remaining-- {
			w &= w - 1
		}
		return ID(wi*wordBits + bits.TrailingZeros64(w)), true
	}
	return 0, false
}

// Min returns the smallest member and true, or 0 and false for the empty set.
func (s Set) Min() (ID, bool) {
	for wi := 0; wi <= len(s.hi); wi++ {
		if w := s.Word(wi); w != 0 {
			return ID(wi*wordBits + bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// Max returns the largest member and true, or 0 and false for the empty set.
func (s Set) Max() (ID, bool) {
	for wi := len(s.hi); wi >= 0; wi-- {
		if w := s.Word(wi); w != 0 {
			return ID(wi*wordBits + 63 - bits.LeadingZeros64(w)), true
		}
	}
	return 0, false
}

// String renders the set as "{n0, n3, n7}". Members appear in increasing
// order.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.IDs() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(id.String())
	}
	b.WriteByte('}')
	return b.String()
}

// FromIDs builds a set from a slice of IDs, ignoring duplicates.
func FromIDs(ids []ID) Set {
	return New(ids...)
}

// SortIDs sorts a slice of IDs in increasing order, in place, and returns it.
func SortIDs(ids []ID) []ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
