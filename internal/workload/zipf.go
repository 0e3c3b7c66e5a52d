package workload

import (
	"fmt"
	"math"
)

// Zipf draws keys from an approximate Zipfian distribution over
// [0, n) with exponent theta in (0, 1) — the YCSB generator (Gray et al.,
// "Quickly Generating Billion-Record Synthetic Databases"), which covers
// the s ≈ 1.0 regime that math/rand's Zipf (s > 1 strictly) cannot
// express. Rank 0 is the hottest key; with theta = 0.99 (the YCSB
// default, and this package's DefaultZipfTheta) roughly 10% of keys draw
// half the traffic, the shape of real multi-tenant key popularity.
//
// The generator is deterministic under its seed, allocation-free per
// draw, and NOT safe for concurrent use — give each worker its own via
// Split, exactly like Generator.
type Zipf struct {
	n     uint64
	theta float64

	// YCSB constants, fixed at construction: zetan = zeta(n, theta),
	// alpha = 1/(1-theta), eta per the YCSB paper.
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 1 + 0.5^theta, the rank-1 threshold

	state uint64 // splitmix64
}

// DefaultZipfTheta is the YCSB-standard skew, the closest stable setting
// to the s ≈ 1.0 regime (theta → 1 is the classical Zipf exponent 1).
const DefaultZipfTheta = 0.99

// NewZipf builds a Zipfian generator over n keys. Construction is O(n)
// (the zeta(n, theta) sum); draws are O(1). theta must lie in (0, 1).
func NewZipf(n uint64, theta float64, seed int64) (*Zipf, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: zipf needs at least one key")
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("workload: zipf theta must be in (0, 1), got %g", theta)
	}
	z := &Zipf{n: n, theta: theta, state: mix64(uint64(seed) + 0x9e3779b97f4a7c15)}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z, nil
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// N returns the key-space size.
func (z *Zipf) N() uint64 { return z.n }

// Next draws the next key rank in [0, N). Rank 0 is the most frequent.
// Allocation-free.
func (z *Zipf) Next() uint64 {
	z.state += 0x9e3779b97f4a7c15
	// 53-bit uniform in [0, 1).
	u := float64(mix64(z.state)>>11) / (1 << 53)
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Split derives k independent child generators over the same distribution,
// each with its own deterministic stream — the per-worker form, mirroring
// Generator.Split. The parent's state advances, so the children and any
// further parent use are all decorrelated. The O(n) zeta sum is computed
// once and shared.
func (z *Zipf) Split(k int) ([]*Zipf, error) {
	if k <= 0 {
		return nil, fmt.Errorf("workload: zipf split into %d parts", k)
	}
	out := make([]*Zipf, k)
	for i := range out {
		child := *z
		z.state += 0x9e3779b97f4a7c15
		child.state = mix64(z.state)
		out[i] = &child
	}
	return out, nil
}
