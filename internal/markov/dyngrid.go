package markov

import (
	"fmt"
	"sort"
	"strings"
)

// DynamicGridModel is the paper's Figure 3 Markov chain for the dynamic
// grid protocol under the site model.
//
// A state (x, y, z) has y nodes in the latest epoch, x of them up, and z of
// the N−y remaining nodes up. With epoch checking running between
// consecutive events, the epoch tracks the up-set exactly while it holds at
// least a write quorum of its predecessor; the paper's analysis uses two
// facts about the grid coterie:
//
//   - any grid epoch of ≥ 4 nodes survives one failure, so available states
//     collapse to A_k = (k, k, 0) for k = 3 … N (the diagram's upper row);
//   - a 3-node epoch requires all three members up to form a quorum
//     (Figure 2), so a failure at A_3 enters an unavailable region
//     U_{x,z} = (x, 3, z) that is escaped only when the third member
//     repairs, jumping to A_{3+z}.
//
// Transitions follow independent per-node Poisson failures (rate Lambda)
// and repairs (rate Mu).
type DynamicGridModel struct {
	N      int     // number of replicas
	Lambda float64 // per-node failure rate
	Mu     float64 // per-node repair rate
}

// stateIndex enumerates the chain's states:
//
//	A_k  (k = 3..N)            → index k-3
//	U_{x,z} (x = 0..2, z = 0..N-3) → index (N-2) + x*(N-2) + z
func (m DynamicGridModel) availIndex(k int) int { return k - 3 }

func (m DynamicGridModel) unavailIndex(x, z int) int {
	return (m.N - 2) + x*(m.N-2) + z
}

// States returns the total number of states: (N−2) available + 3(N−2)
// unavailable.
func (m DynamicGridModel) States() int { return 4 * (m.N - 2) }

// Chain constructs the CTMC.
func (m DynamicGridModel) Chain() (*Chain, error) {
	if m.N < 4 {
		return nil, fmt.Errorf("markov: dynamic grid model needs N >= 4, got %d", m.N)
	}
	if m.Lambda <= 0 || m.Mu <= 0 {
		return nil, fmt.Errorf("markov: rates must be positive (lambda=%g, mu=%g)", m.Lambda, m.Mu)
	}
	c := NewChain(m.States())
	N, l, u := m.N, m.Lambda, m.Mu

	// Available row: epoch = up-set of size k.
	for k := 3; k <= N; k++ {
		if k < N {
			c.AddRate(m.availIndex(k), m.availIndex(k+1), float64(N-k)*u)
		}
		if k > 3 {
			c.AddRate(m.availIndex(k), m.availIndex(k-1), float64(k)*l)
		}
	}
	// A_3 → U_{2,0}: one of the three epoch members fails.
	c.AddRate(m.availIndex(3), m.unavailIndex(2, 0), 3*l)

	// Unavailable region: x of the 3 epoch members up, z of N−3 others up.
	for x := 0; x <= 2; x++ {
		for z := 0; z <= N-3; z++ {
			from := m.unavailIndex(x, z)
			if x > 0 {
				c.AddRate(from, m.unavailIndex(x-1, z), float64(x)*l)
			}
			if x < 2 {
				c.AddRate(from, m.unavailIndex(x+1, z), float64(3-x)*u)
			} else {
				// Third member repairs: new epoch of 3+z nodes forms.
				c.AddRate(from, m.availIndex(3+z), u)
			}
			if z > 0 {
				c.AddRate(from, m.unavailIndex(x, z-1), float64(z)*l)
			}
			if z < N-3 {
				c.AddRate(from, m.unavailIndex(x, z+1), float64(N-3-z)*u)
			}
		}
	}
	return c, nil
}

// Unavailability returns the stationary probability of the unavailable
// region. Summing the unavailable states directly — rather than computing
// 1 − availability — preserves precision at the 1e-33 scale of Table 1.
func (m DynamicGridModel) Unavailability() (float64, error) {
	c, err := m.Chain()
	if err != nil {
		return 0, err
	}
	pi, err := c.Stationary()
	if err != nil {
		return 0, err
	}
	u := 0.0
	for _, p := range pi[m.unavailIndex(0, 0):] { // the U states follow the A states
		u += p
	}
	return u, nil
}

// MeanOutageDuration returns the expected length of a write outage: the
// mean time from the moment a 3-node epoch loses its first member (state
// U(2,3,0)) until an epoch re-forms (any available state). Together with
// the stationary unavailability this characterizes not just how often the
// item is down but for how long at a stretch.
func (m DynamicGridModel) MeanOutageDuration() (float64, error) {
	c, err := m.Chain()
	if err != nil {
		return 0, err
	}
	targets := make([]int, 0, m.N-2)
	for k := 3; k <= m.N; k++ {
		targets = append(targets, m.availIndex(k))
	}
	h, err := c.MeanHittingTimes(targets)
	if err != nil {
		return 0, err
	}
	return h[m.unavailIndex(2, 0)], nil
}

// RenderChain describes the state diagram (the paper's Figure 3) as text:
// one line per state with its outgoing transitions.
func (m DynamicGridModel) RenderChain() (string, error) {
	c, err := m.Chain()
	if err != nil {
		return "", err
	}
	name := func(i int) string {
		if i < m.N-2 {
			k := i + 3
			return fmt.Sprintf("A(%d,%d,0)", k, k)
		}
		r := i - (m.N - 2)
		x, z := r/(m.N-2), r%(m.N-2)
		return fmt.Sprintf("U(%d,3,%d)", x, z)
	}
	type edge struct {
		j    int
		rate float64
	}
	out := make(map[int][]edge)
	c.Transitions(func(i, j int, rate float64) {
		out[i] = append(out[i], edge{j, rate})
	})
	var b strings.Builder
	fmt.Fprintf(&b, "dynamic grid chain for N=%d (lambda=%g, mu=%g): %d states\n",
		m.N, m.Lambda, m.Mu, m.States())
	for i := 0; i < c.Len(); i++ {
		edges := out[i]
		sort.Slice(edges, func(a, b int) bool { return edges[a].j < edges[b].j })
		fmt.Fprintf(&b, "  %-12s", name(i))
		for _, e := range edges {
			fmt.Fprintf(&b, " ->%s@%.3g", name(e.j), e.rate)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
