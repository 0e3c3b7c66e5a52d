package markov

import (
	"fmt"
	"math"

	"coterie/internal/coterie"
)

// Baseline availability expressions used by the comparison experiments.

// binomialTail returns P(X >= k) for X ~ Binomial(n, p).
func binomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += binomialPMF(n, i, p)
	}
	return sum
}

func binomialPMF(n, k int, p float64) float64 {
	// Compute C(n,k) p^k (1-p)^(n-k) via logarithms for stability.
	logC := 0.0
	for i := 1; i <= k; i++ {
		logC += math.Log(float64(n-k+i)) - math.Log(float64(i))
	}
	return math.Exp(logC + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// StaticMajorityWriteAvailability is the probability that at least
// ⌊n/2⌋+1 of n nodes are up — the static voting protocol's write
// availability (Gifford, one vote per node).
func StaticMajorityWriteAvailability(n int, p float64) float64 {
	return binomialTail(n, n/2+1, p)
}

// ROWAWriteAvailability is p^n: read-one/write-all requires every replica
// up to perform a write.
func ROWAWriteAvailability(n int, p float64) float64 {
	return math.Pow(p, float64(n))
}

// ROWAReadAvailability is 1 − (1−p)^n.
func ROWAReadAvailability(n int, p float64) float64 {
	return 1 - math.Pow(1-p, float64(n))
}

// DynamicVotingModel is the availability chain for dynamic majority voting
// (Jajodia–Mutchler) under the same site-model assumptions as
// DynamicGridModel, included for the paper's Section 2 comparison.
//
// With instantaneous adjustment, the participation set (the analogue of the
// epoch) tracks the up-set while a majority of the previous set stays up.
// A set of k ≥ 3 nodes survives one failure (k−1 > k/2); a 2-node set does
// not — the majority of 2 is 2 — so plain dynamic voting becomes
// unavailable when a member of a 2-node set fails, and recovers when that
// member repairs (forming a fresh set from everything then up). That is
// the epoch chain under coterie.Majority, which is how the plain variant
// is solved.
//
// With Linear set, the lexicographic tie-break of dynamic-linear voting
// lets a 2-node set survive the failure of its lower-priority member: the
// distinguished survivor continues alone. No coterie rule expresses the
// tie-break, so this variant keeps its own chain: available states A_k
// (k = 1..N), and unavailable states U_z — the distinguished node is down
// and z of the other N−1 nodes are up. The system blocks only when the
// distinguished member itself goes down (from a 2-node set at rate λ, or
// from a 1-node set), and recovers when it repairs.
type DynamicVotingModel struct {
	N      int
	Lambda float64
	Mu     float64
	Linear bool // dynamic-linear voting (lexicographic tie-break)
}

// linearChain constructs the dynamic-linear CTMC: A_k at index k−1, U_z at
// N+z.
func (m DynamicVotingModel) linearChain() (*Chain, error) {
	N, l, u := m.N, m.Lambda, m.Mu
	if N < 2 {
		return nil, fmt.Errorf("markov: dynamic-linear voting model needs N >= 2, got %d", N)
	}
	if l <= 0 || u <= 0 {
		return nil, fmt.Errorf("markov: rates must be positive (lambda=%g, mu=%g)", l, u)
	}
	availIdx := func(k int) int { return k - 1 }
	unavailIdx := func(z int) int { return N + z } // z = 0..N-1
	c := NewChain(2 * N)
	for k := 1; k <= N; k++ {
		if k < N {
			c.AddRate(availIdx(k), availIdx(k+1), float64(N-k)*u)
		}
		switch {
		case k >= 3:
			c.AddRate(availIdx(k), availIdx(k-1), float64(k)*l)
		case k == 2:
			// Lower-priority member fails: survive alone.
			c.AddRate(availIdx(k), availIdx(1), l)
			// Distinguished member fails: block with z = 1 outsider up.
			c.AddRate(availIdx(k), unavailIdx(1), l)
		case k == 1:
			c.AddRate(availIdx(k), unavailIdx(0), l)
		}
	}
	for z := 0; z <= N-1; z++ {
		from := unavailIdx(z)
		c.AddRate(from, availIdx(1+z), u) // distinguished node repairs
		if z > 0 {
			c.AddRate(from, unavailIdx(z-1), float64(z)*l)
		}
		if z < N-1 {
			c.AddRate(from, unavailIdx(z+1), float64(N-1-z)*u)
		}
	}
	return c, nil
}

// Unavailability returns the stationary unavailable probability mass.
func (m DynamicVotingModel) Unavailability() (float64, error) {
	if !m.Linear {
		write, _, err := RuleModel(coterie.Majority{}, m.N, m.Lambda, m.Mu).Unavailabilities()
		return write, err
	}
	c, err := m.linearChain()
	if err != nil {
		return 0, err
	}
	pi, err := c.Stationary()
	if err != nil {
		return 0, err
	}
	u := 0.0
	for _, p := range pi[m.N:] {
		u += p
	}
	return u, nil
}
