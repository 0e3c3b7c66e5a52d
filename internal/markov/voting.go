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
// distinguished survivor continues alone, and the system blocks only when
// the distinguished member itself goes down. That is the epoch chain under
// coterie.Wheel: a wheel of three or more survives any one failure, and a
// two-member wheel's one quorum is its spoke, which survives losing the hub
// and not the spoke.
type DynamicVotingModel struct {
	N      int
	Lambda float64
	Mu     float64
	Linear bool // dynamic-linear voting (lexicographic tie-break)
}

// Unavailability returns the stationary unavailable probability mass.
func (m DynamicVotingModel) Unavailability() (float64, error) {
	rule := coterie.Rule(coterie.Majority{})
	if m.Linear {
		if m.N < 2 {
			return 0, fmt.Errorf("markov: dynamic-linear voting model needs N >= 2, got %d", m.N)
		}
		rule = coterie.Wheel{}
	}
	write, _, err := RuleModel(rule, m.N, m.Lambda, m.Mu).Unavailabilities()
	return write, err
}
