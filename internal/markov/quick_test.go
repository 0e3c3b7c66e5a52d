package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"coterie/internal/coterie"
)

// randomConnectedChain builds a CTMC with a guaranteed cycle (ergodic) plus
// random extra edges.
func randomConnectedChain(r *rand.Rand) *Chain {
	n := 2 + r.Intn(8)
	c := NewChain(n)
	for i := 0; i < n; i++ {
		c.AddRate(i, (i+1)%n, 0.1+r.Float64()*3)
	}
	for e := 0; e < r.Intn(12); e++ {
		i, j := r.Intn(n), r.Intn(n)
		c.AddRate(i, j, 0.1+r.Float64()*3)
	}
	return c
}

// Property: stationary distributions are probability vectors and satisfy
// global balance (πQ = 0) to numerical precision.
func TestQuickStationaryIsBalanced(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomConnectedChain(r)
		pi, err := c.Stationary()
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range pi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Residual of the balance equations: for each state j,
		// inflow - outflow = 0.
		net := make([]float64, c.Len())
		c.Transitions(func(i, j int, rate float64) {
			net[j] += pi[i] * rate
			net[i] -= pi[i] * rate
		})
		for _, v := range net {
			if math.Abs(v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean hitting times are non-negative, zero exactly on targets,
// and satisfy the first-step equations.
func TestQuickHittingTimesFirstStep(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomConnectedChain(r)
		target := r.Intn(c.Len())
		h, err := c.MeanHittingTimes([]int{target})
		if err != nil {
			return false
		}
		if h[target] != 0 {
			return false
		}
		exit := make([]float64, c.Len())
		expect := make([]float64, c.Len()) // Σ q_ij·h_j
		c.Transitions(func(i, j int, rate float64) {
			exit[i] += rate
			expect[i] += rate * h[j]
		})
		for i := range h {
			if i == target {
				continue
			}
			if h[i] < 0 {
				return false
			}
			// λ_i·h_i = 1 + Σ q_ij·h_j
			if math.Abs(exit[i]*h[i]-1-expect[i]) > 1e-6*(1+exit[i]*h[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the dynamic grid's unavailability is monotone in the failure
// rate (more failures can only hurt).
func TestQuickDynGridMonotoneInLambda(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		mu := 1 + r.Float64()*20
		l1 := 0.1 + r.Float64()*2
		l2 := l1 * (1.1 + r.Float64())
		u1, err := DynamicGridModel{N: n, Lambda: l1, Mu: mu}.Unavailability()
		if err != nil {
			return false
		}
		u2, err := DynamicGridModel{N: n, Lambda: l2, Mu: mu}.Unavailability()
		if err != nil {
			return false
		}
		return u2 > u1 && u1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: static grid availability formulas stay within [0,1] and are
// monotone in p for arbitrary ratio shapes.
func TestQuickStaticGridMonotoneInP(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		k := 0.2 + r.Float64()*5
		shape := coterie.DefineGridRatio(n, k)
		p1 := 0.05 + r.Float64()*0.85
		p2 := p1 + (1-p1)*r.Float64()*0.9
		a1 := StaticGridWriteAvailability(shape, p1, false)
		a2 := StaticGridWriteAvailability(shape, p2, false)
		if a1 < 0 || a1 > 1 || a2 < 0 || a2 > 1 {
			return false
		}
		return a2 >= a1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
