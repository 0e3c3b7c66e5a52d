package nodeset

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"
)

// model is the reference a Set is held to: membership and nothing else.
type model map[ID]bool

// modelUniverse spans the inline word and three spilled ones.
const modelUniverse = 201

// drawPair returns a random set and its model. Shapes cover both sides of
// the word boundary: inline only, spilled only, both, and a spill slice
// left behind all-zero by Remove.
func drawPair(r *rand.Rand) (Set, model) {
	var s Set
	m := model{}
	lo, hi := ID(0), ID(modelUniverse)
	switch r.Intn(4) {
	case 0:
		hi = wordBits
	case 1:
		lo = wordBits
	}
	for i := r.Intn(12); i > 0; i-- {
		id := lo + ID(r.Intn(int(hi-lo)))
		s.Add(id)
		m[id] = true
	}
	if r.Intn(4) == 0 {
		id := ID(wordBits + r.Intn(modelUniverse-wordBits))
		s.Add(id)
		m[id] = true
		s.Remove(id)
		delete(m, id)
	}
	return s, m
}

func (m model) ids() []ID {
	out := make([]ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// agree reports the first way s departs from m, or "".
func agree(s Set, m model) string {
	want := m.ids()
	got := s.IDs()
	if len(got) != len(want) || s.Len() != len(want) || s.Empty() != (len(want) == 0) {
		return "membership count"
	}
	for i, id := range want {
		if got[i] != id {
			return "IDs order"
		}
		if pos, ok := s.OrderedNumber(id); !ok || pos != i+1 {
			return "OrderedNumber"
		}
		if nth, ok := s.Nth(i + 1); !ok || nth != id {
			return "Nth"
		}
	}
	for id := ID(-1); id <= modelUniverse; id++ {
		if s.Contains(id) != m[id] {
			return "Contains"
		}
		if _, ok := s.OrderedNumber(id); ok != m[id] {
			return "OrderedNumber of a non-member"
		}
		if id >= 0 && s.Word(int(id)/wordBits)>>(uint(id)%wordBits)&1 == 1 != m[id] {
			return "Word"
		}
	}
	if _, ok := s.Nth(len(want) + 1); ok {
		return "Nth past the end"
	}
	lo, okLo := s.Min()
	hi, okHi := s.Max()
	if okLo != (len(want) > 0) || okHi != okLo {
		return "Min/Max presence"
	}
	if okLo && (lo != want[0] || hi != want[len(want)-1]) {
		return "Min/Max value"
	}
	return ""
}

// TestSetAgainstModel holds every operation, with inline and spilled
// operands mixed, to a map of members.
func TestSetAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		a, ma := drawPair(r)
		b, mb := drawPair(r)
		if why := agree(a, ma); why != "" {
			t.Fatalf("case %d: %v departs from its model: %s", i, a, why)
		}
		union, inter, diff := model{}, model{}, model{}
		subset := true
		for id := range ma {
			union[id] = true
			if mb[id] {
				inter[id] = true
			} else {
				diff[id] = true
				subset = false
			}
		}
		for id := range mb {
			union[id] = true
		}
		for _, c := range []struct {
			name string
			got  Set
			want model
		}{
			{"Union", a.Union(b), union},
			{"Intersect", a.Intersect(b), inter},
			{"Diff", a.Diff(b), diff},
			{"FromIDs", FromIDs(a.IDs()), ma},
		} {
			if why := agree(c.got, c.want); why != "" {
				t.Fatalf("case %d: %v %s %v = %v: %s", i, a, c.name, b, c.got, why)
			}
		}
		if a.Subset(b) != subset || b.ContainsAll(a) != subset {
			t.Fatalf("case %d: %v Subset %v = %v, want %v", i, a, b, a.Subset(b), subset)
		}
		if a.Intersects(b) != (len(inter) > 0) || a.IntersectionLen(b) != len(inter) {
			t.Fatalf("case %d: %v Intersects/IntersectionLen %v", i, a, b)
		}
		equal := len(diff) == 0 && len(ma) == len(mb)
		if a.Equal(b) != equal || b.Equal(a) != equal || !a.Equal(a.Union(a)) {
			t.Fatalf("case %d: %v Equal %v = %v, want %v", i, a, b, a.Equal(b), equal)
		}

		// A clone shares nothing: changing it on either side of the word
		// boundary leaves the original as it was, and the other way round.
		c := a.Clone()
		for _, id := range []ID{ID(r.Intn(wordBits)), ID(wordBits + r.Intn(modelUniverse-wordBits))} {
			if ma[id] {
				c.Remove(id)
			} else {
				c.Add(id)
			}
		}
		if why := agree(a, ma); why != "" {
			t.Fatalf("case %d: changing a clone changed the original: %s", i, why)
		}
		before := c.IDs()
		for id := range ma {
			a.Remove(id)
		}
		if !FromIDs(before).Equal(c) {
			t.Fatalf("case %d: changing the original changed its clone", i)
		}

		// Canonical encoding: equal sets, whatever their spill length, give
		// the same bytes, and the bytes decode to an equal set.
		enc := c.Encode()
		padded := c.Union(New(2 * modelUniverse))
		padded.Remove(2 * modelUniverse)
		if !bytes.Equal(padded.Encode(), enc) {
			t.Fatalf("case %d: %v encodes differently with zero spill words", i, c)
		}
		dec, n, err := Decode(enc)
		if err != nil || n != len(enc) || !dec.Equal(c) {
			t.Fatalf("case %d: %v round trip: %v, %d of %d bytes, %v", i, c, dec, n, len(enc), err)
		}
	}
}

// TestEncodingGolden pins the wire form byte for byte: a uvarint word
// count, then that many little-endian words, trailing zero words trimmed.
// The bytes were produced by the slice-backed Set this one replaced.
func TestEncodingGolden(t *testing.T) {
	trimmed := New(3, 200)
	trimmed.Remove(200)
	cases := []struct {
		set Set
		hex string
	}{
		{Set{}, "00"},
		{New(0), "010100000000000000"},
		{New(63), "010000000000000080"},
		{Range(0, 9), "01ff01000000000000"},
		{New(64), "0200000000000000000100000000000000"},
		{New(0, 64), "0201000000000000000100000000000000"},
		{New(3, 17, 64, 69), "0208000200000000002100000000000000"},
		{trimmed, "010800000000000000"},
		{New(130), "03000000000000000000000000000000000400000000000000"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.set.Encode()); got != c.hex {
			t.Errorf("%v encodes to %s, want %s", c.set, got, c.hex)
		}
		raw, _ := hex.DecodeString(c.hex)
		got, n, err := Decode(raw)
		if err != nil || n != len(raw) || !got.Equal(c.set) {
			t.Errorf("%s decodes to %v (%d bytes, %v), want %v", c.hex, got, n, err, c.set)
		}
	}
	last := New(MaxNodes - 1).Encode()
	if len(last) != 1+8*MaxNodes/wordBits || last[0] != MaxNodes/wordBits || last[len(last)-1] != 0x80 {
		t.Errorf("the largest ID encodes to %d bytes starting %#x", len(last), last[0])
	}

	// Strict rejects: every non-canonical or short form of the above.
	for _, bad := range []string{
		"",                                   // no count
		"01",                                 // count without its word
		"0101000000000000",                   // word cut short
		"010000000000000000",                 // trailing zero word, inline
		"0201000000000000000000000000000000", // trailing zero word, spilled
		"8100",                               // count not minimally encoded
		"410000",                             // count beyond MaxNodes
	} {
		raw, _ := hex.DecodeString(bad)
		if s, _, err := Decode(raw); err == nil {
			t.Errorf("%q accepted as %v", bad, s)
		}
	}
}
