package coterie

import (
	"math/rand"
	"testing"

	"coterie/internal/nodeset"
)

// minimalRules are the rules the minimality property covers: every rule
// the protocol layers can be configured with, in the variants whose
// structure differs (ragged, strict and elongated grids; skewed majority).
var minimalRules = []struct {
	name string
	rule Rule
}{
	{"grid", Grid{}},
	{"grid-strict", Grid{Strict: true}},
	{"grid-ratio2", Grid{Ratio: 2}},
	{"majority", Majority{}},
	{"majority-read1", Majority{ReadQuorumSize: 1}},
	{"hierarchical", Hierarchical{}},
	{"wheel", Wheel{}},
	{"rowa", ROWA{}},
}

// removable returns a member of q without which is still accepts the rest,
// or ok=false when q is minimal. Quorum predicates are monotone,
// so no single removable member means no proper subset is a quorum.
func removable(q nodeset.Set, is func(nodeset.Set) bool) (nodeset.ID, bool) {
	for _, id := range q.IDs() {
		rest := q.Clone()
		rest.Remove(id)
		if is(rest) {
			return id, true
		}
	}
	return 0, false
}

// TestPickersReturnMinimalQuorums is the antichain property (paper, Section
// 3: the read and the write quorums of a coterie are antichains): for every
// rule, every epoch size up to 16, random availability, load and hint, no
// picker — hint, load-aware, uncompiled, enumerated — returns a quorum from
// which a member can be removed. A dominated quorum costs a lock, two frames
// and a share of some replica's capacity that buy no safety.
func TestPickersReturnMinimalQuorums(t *testing.T) {
	const maxN = 16
	for _, tc := range minimalRules {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0x3a17))
			for n := 1; n <= maxN; n++ {
				// IDs are spread out so positions and names differ.
				var V nodeset.Set
				for i := 0; i < n; i++ {
					V.Add(nodeset.ID(2*i + 1))
				}
				lay := Compile(tc.rule, V)

				for _, block := range []struct {
					kind string
					qs   []nodeset.Set
					is   func(nodeset.Set) bool
				}{
					{"EnumerateReadQuorums", lay.EnumerateReadQuorums(0), lay.IsReadQuorum},
					{"EnumerateWriteQuorums", lay.EnumerateWriteQuorums(0), lay.IsWriteQuorum},
				} {
					if len(block.qs) == 0 {
						t.Fatalf("n=%d %s: no candidates", n, block.kind)
					}
					for _, q := range block.qs {
						if !block.is(q) {
							t.Fatalf("n=%d %s: %v is not a quorum", n, block.kind, q)
						}
						if id, ok := removable(q, block.is); ok {
							t.Fatalf("n=%d %s: %v is still a quorum without %v", n, block.kind, q, id)
						}
					}
				}

				for trial := 0; trial < layoutCases/maxN; trial++ {
					avail := V.Clone()
					if trial%4 != 0 { // every fourth draw has all members up
						for _, id := range V.IDs() {
							if rng.Intn(5) == 0 {
								avail.Remove(id)
							}
						}
					}
					loads := make(map[nodeset.ID]float64, n)
					for _, id := range V.IDs() {
						loads[id] = float64(rng.Intn(4))
					}
					load := func(id nodeset.ID) float64 { return loads[id] }
					hint := rng.Intn(4096) - 64

					type pick struct {
						kind string
						q    nodeset.Set
						ok   bool
						is   func(nodeset.Set) bool
					}
					var picks []pick
					add := func(kind string, is func(nodeset.Set) bool, q nodeset.Set, ok bool) {
						picks = append(picks, pick{kind, q, ok, is})
					}
					q, ok := lay.ReadQuorum(avail, hint)
					add("ReadQuorum", lay.IsReadQuorum, q, ok)
					q, ok = lay.WriteQuorum(avail, hint)
					add("WriteQuorum", lay.IsWriteQuorum, q, ok)
					q, ok = lay.ReadQuorumLoaded(avail, load, hint)
					add("ReadQuorumLoaded", lay.IsReadQuorum, q, ok)
					q, ok = lay.WriteQuorumLoaded(avail, load, hint)
					add("WriteQuorumLoaded", lay.IsWriteQuorum, q, ok)
					q, ok = tc.rule.ReadQuorum(V, avail, hint)
					add("Rule.ReadQuorum", lay.IsReadQuorum, q, ok)
					q, ok = tc.rule.WriteQuorum(V, avail, hint)
					add("Rule.WriteQuorum", lay.IsWriteQuorum, q, ok)

					for _, p := range picks {
						// A picker may only fail when avail holds no quorum.
						if !p.ok {
							if p.is(avail) {
								t.Fatalf("n=%d %s: no quorum drawn from %v, which holds one", n, p.kind, avail)
							}
							continue
						}
						if !p.q.Subset(avail) || !p.is(p.q) {
							t.Fatalf("n=%d %s: %v is not a quorum within %v", n, p.kind, p.q, avail)
						}
						if id, ok := removable(p.q, p.is); ok {
							t.Fatalf("n=%d %s: %v is still a quorum without %v (avail %v, hint %d)",
								n, p.kind, p.q, id, avail, hint)
						}
					}
				}
			}
		})
	}
}

// TestRaggedGridWritesAreCovers pins what minimality means on the grids
// small shards get: 2×2−1 (three members) and 2×3−1 (five) end in a column
// one member high, every read cover contains it whole, so the write quorums
// are exactly the read covers — two members of three, three of five — and
// that column's member is in every quorum of either kind.
func TestRaggedGridWritesAreCovers(t *testing.T) {
	for _, n := range []int{3, 5} {
		V := seqSet(n)
		lay := Compile(Grid{}, V)
		_, cols, _ := lay.GridShape()
		pivot := nodeset.ID(cols - 1) // first row, last column
		reads, writes := lay.EnumerateReadQuorums(0), lay.EnumerateWriteQuorums(0)
		if len(reads) != len(writes) {
			t.Fatalf("n=%d: %d read covers, %d write quorums", n, len(reads), len(writes))
		}
		for i := range reads {
			if !reads[i].Equal(writes[i]) {
				t.Errorf("n=%d: write candidate %v is not read cover %v", n, writes[i], reads[i])
			}
		}
		for hint := 0; hint < 64; hint++ {
			w, ok := lay.WriteQuorum(V, hint)
			if !ok || w.Len() != cols || !w.Contains(pivot) {
				t.Errorf("n=%d hint=%d: write quorum %v, want %d members with %v", n, hint, w, cols, pivot)
			}
		}
	}
	// A grid whose shortest column is two high is untouched: 3×3 writes are
	// a column and a cover of the other two.
	lay := Compile(Grid{}, seqSet(9))
	if w, _ := lay.WriteQuorum(seqSet(9), 0); w.Len() != 5 {
		t.Errorf("3x3 write quorum %v has %d members, want 5", w, w.Len())
	}
}
