package markov

import (
	"fmt"
	"math/bits"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
)

// Quorum reports whether the up members of a k-member epoch include a
// quorum: bit i of up is set when the epoch's i-th member, in ID order, is
// up. A rule arranges an epoch by the order of its members' names alone, so
// which IDs the members have does not matter.
type Quorum func(k int, up uint64) bool

// Paper is the epoch transition of the paper's Figure 3 analysis: an epoch
// of at least four members survives one failure, and a 3-member epoch
// needs all three.
func Paper(k int, up uint64) bool {
	down := k - bits.OnesCount64(up)
	return down == 0 || k >= 4 && down == 1
}

// ruleQuorums returns rule's write and read quorum tests over an epoch's
// up-mask. Each epoch size is compiled once, on first use, so the tests are
// not safe for concurrent use.
func ruleQuorums(rule coterie.Rule) (write, read Quorum) {
	layouts := make(map[int]*coterie.Layout)
	layout := func(k int) *coterie.Layout {
		l, ok := layouts[k]
		if !ok {
			l = coterie.Compile(rule, nodeset.Range(0, nodeset.ID(k)))
			layouts[k] = l
		}
		return l
	}
	write = func(k int, up uint64) bool { return layout(k).IsWriteQuorum(maskSet(up)) }
	read = func(k int, up uint64) bool { return layout(k).IsReadQuorum(maskSet(up)) }
	return write, read
}

// maskSet is the set of positions whose bits are set in up.
func maskSet(up uint64) nodeset.Set {
	var s nodeset.Set
	for ; up != 0; up &= up - 1 {
		s.Add(nodeset.ID(bits.TrailingZeros64(up)))
	}
	return s
}

// EpochModel is the site-model chain of the dynamic protocol under any
// epoch transition: N nodes fail and repair independently (rates Lambda
// and Mu), and the epoch is checked after every event, moving to the
// up-set whenever the up members include a Write quorum of it.
//
// A state is (k, up, j): an epoch of k members, the mask of those up, and
// j up non-members. Instantaneous checks leave two kinds of state: an
// available one, (k, all up, 0), and a blocked one, whose up members hold
// no write quorum — it waits, tracking which members are up and how many
// others, until they do. The states are those reachable from (N, all up,
// 0). Under Paper and the grid's read quorums this is the read-model
// refinement of Figure 3, 8(N−2) states; under a rule's own quorums it is
// the protocol as written.
type EpochModel struct {
	N      int
	Lambda float64 // per-node failure rate
	Mu     float64 // per-node repair rate
	Write  Quorum  // may the up members form the next epoch
	Read   Quorum  // can the up members serve a read
}

// epochState is one state of an EpochModel chain.
type epochState struct {
	k, j int    // epoch size, up non-members
	up   uint64 // up members, bit i for the epoch's i-th
}

// allUp is the mask of a k-member epoch with every member up.
func allUp(k int) uint64 { return uint64(1)<<k - 1 }

// chain builds the chain's reachable states and transitions.
func (m EpochModel) chain() (*Chain, []epochState, error) {
	if m.N < 1 || m.N > 64 {
		return nil, nil, fmt.Errorf("markov: epoch model needs 1 <= N <= 64, got %d", m.N)
	}
	if m.Lambda <= 0 || m.Mu <= 0 {
		return nil, nil, fmt.Errorf("markov: rates must be positive (lambda=%g, mu=%g)", m.Lambda, m.Mu)
	}
	if m.Write == nil || m.Read == nil {
		return nil, nil, fmt.Errorf("markov: epoch model needs a write and a read quorum test")
	}
	// settle applies the epoch check that follows every event.
	settle := func(k int, up uint64, j int) epochState {
		if up == allUp(k) && j == 0 {
			return epochState{k: k, up: up}
		}
		if m.Write(k, up) {
			size := bits.OnesCount64(up) + j
			return epochState{k: size, up: allUp(size)}
		}
		return epochState{k: k, up: up, j: j}
	}
	index := make(map[epochState]int)
	var states []epochState
	visit := func(s epochState) int {
		i, ok := index[s]
		if !ok {
			i = len(states)
			index[s] = i
			states = append(states, s)
		}
		return i
	}
	type edge struct {
		from, to int
		rate     float64
	}
	var edges []edge
	visit(epochState{k: m.N, up: allUp(m.N)})
	for i := 0; i < len(states); i++ {
		s := states[i]
		for p := 0; p < s.k; p++ {
			if bit := uint64(1) << p; s.up&bit != 0 {
				edges = append(edges, edge{i, visit(settle(s.k, s.up&^bit, s.j)), m.Lambda})
			} else {
				edges = append(edges, edge{i, visit(settle(s.k, s.up|bit, s.j)), m.Mu})
			}
		}
		if s.j > 0 {
			edges = append(edges, edge{i, visit(settle(s.k, s.up, s.j-1)), float64(s.j) * m.Lambda})
		}
		if down := m.N - s.k - s.j; down > 0 {
			edges = append(edges, edge{i, visit(settle(s.k, s.up, s.j+1)), float64(down) * m.Mu})
		}
	}
	c := NewChain(len(states))
	for _, e := range edges {
		c.AddRate(e.from, e.to, e.rate)
	}
	return c, states, nil
}

// Unavailabilities returns the stationary probability that the up members
// hold no write quorum of the epoch, and no read quorum. Each sums the
// states it counts, never 1 − availability, so both keep their relative
// precision at any magnitude.
func (m EpochModel) Unavailabilities() (write, read float64, err error) {
	c, states, err := m.chain()
	if err != nil {
		return 0, 0, err
	}
	pi, err := c.Stationary()
	if err != nil {
		return 0, 0, err
	}
	for i, s := range states {
		if !m.Write(s.k, s.up) {
			write += pi[i]
		}
		if !m.Read(s.k, s.up) {
			read += pi[i]
		}
	}
	return write, read, nil
}

// PaperReadModel is the read analysis the paper omits ("completely
// analogous", Section 6): Figure 3's transition, with reads served by the
// grid's read quorums. A blocked 3-member epoch a b / c − still reads while
// b and one of a, c are up.
func PaperReadModel(n int, lambda, mu float64) EpochModel {
	_, read := ruleQuorums(coterie.Grid{})
	return EpochModel{N: n, Lambda: lambda, Mu: mu, Write: Paper, Read: read}
}

// RuleModel is the protocol as written under rule: its own write quorums
// decide every epoch change, and its read quorums every read.
func RuleModel(rule coterie.Rule, n int, lambda, mu float64) EpochModel {
	write, read := ruleQuorums(rule)
	return EpochModel{N: n, Lambda: lambda, Mu: mu, Write: write, Read: read}
}
