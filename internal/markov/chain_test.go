package markov

import (
	"math"
	"testing"
)

func TestTwoStateChain(t *testing.T) {
	// Classic up/down machine: up -> down at lambda, down -> up at mu.
	// pi(up) = mu/(lambda+mu).
	c := NewChain(2)
	lambda, mu := 1.0, 19.0
	c.AddRate(0, 1, lambda)
	c.AddRate(1, 0, mu)
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.95) > 1e-12 || math.Abs(pi[1]-0.05) > 1e-12 {
		t.Errorf("pi = %v, want [0.95 0.05]", pi)
	}
}

func TestBirthDeathChain(t *testing.T) {
	// M/M/1/K queue with arrival a and service s has geometric stationary
	// probabilities pi_k ∝ (a/s)^k.
	const k = 5
	a, s := 2.0, 3.0
	c := NewChain(k + 1)
	for i := 0; i < k; i++ {
		c.AddRate(i, i+1, a)
		c.AddRate(i+1, i, s)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	rho := a / s
	norm := 0.0
	for i := 0; i <= k; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for i := 0; i <= k; i++ {
		want := math.Pow(rho, float64(i)) / norm
		if math.Abs(pi[i]-want) > 1e-12 {
			t.Errorf("pi[%d] = %v, want %v", i, pi[i], want)
		}
	}
}

func TestStationarySumsToOne(t *testing.T) {
	c := NewChain(4)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 2, 2)
	c.AddRate(2, 3, 3)
	c.AddRate(3, 0, 4)
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
		if p < 0 {
			t.Errorf("negative probability %v", p)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum = %v", sum)
	}
}

func TestAddRateAccumulates(t *testing.T) {
	c := NewChain(2)
	c.AddRate(0, 1, 1)
	c.AddRate(0, 1, 2)
	if c.Rate(0, 1) != 3 {
		t.Errorf("Rate = %v, want 3", c.Rate(0, 1))
	}
}

func TestAddRateIgnoresSelfLoopsAndNonPositive(t *testing.T) {
	c := NewChain(2)
	c.AddRate(0, 0, 5)
	c.AddRate(0, 1, 0)
	c.AddRate(0, 1, -1)
	if len(c.rates) != 0 {
		t.Errorf("rates = %v, want empty", c.rates)
	}
}

func TestAddRatePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewChain(2).AddRate(0, 2, 1)
}

func TestTransitionsVisitsAll(t *testing.T) {
	c := NewChain(3)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 2, 2)
	total := 0.0
	count := 0
	c.Transitions(func(i, j int, rate float64) {
		total += rate
		count++
	})
	if count != 2 || total != 3 {
		t.Errorf("count=%d total=%v", count, total)
	}
}

func TestMeanHittingTimesTwoState(t *testing.T) {
	// up -> down at lambda: expected hit time from up is 1/lambda.
	c := NewChain(2)
	lambda, mu := 2.0, 5.0
	c.AddRate(0, 1, lambda)
	c.AddRate(1, 0, mu)
	h, err := c.MeanHittingTimes([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h[0]-1/lambda) > 1e-12 || h[1] != 0 {
		t.Errorf("h = %v", h)
	}
}

func TestMeanHittingTimesBirthDeath(t *testing.T) {
	// 0 <-> 1 <-> 2 with unit rates, target 2. By first-step analysis:
	// h0 = 1 + h1 (exit rate 1), and h1 = 1/2 + (1/2)h0 (exit rate 2,
	// half the jumps go back to 0). Solving: h1 = 2, h0 = 3.
	c := NewChain(3)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 0, 1)
	c.AddRate(1, 2, 1)
	c.AddRate(2, 1, 1)
	h, err := c.MeanHittingTimes([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h[0]-3) > 1e-12 || math.Abs(h[1]-2) > 1e-12 {
		t.Errorf("h = %v, want [3 2 0]", h)
	}
}

func TestMeanHittingTimesValidation(t *testing.T) {
	c := NewChain(2)
	c.AddRate(0, 1, 1)
	if _, err := c.MeanHittingTimes([]int{5}); err == nil {
		t.Error("out-of-range target accepted")
	}
	// All states targets: all zeros.
	h, err := c.MeanHittingTimes([]int{0, 1})
	if err != nil || h[0] != 0 || h[1] != 0 {
		t.Errorf("h = %v, %v", h, err)
	}
	// Unreachable target: state 1 has no outgoing edges, so from 1 the
	// target 0 is never hit — singular system.
	if _, err := c.MeanHittingTimes([]int{0}); err == nil {
		t.Error("unreachable-target system solved")
	}
}

func TestMeanOutageDuration(t *testing.T) {
	m := DynamicGridModel{N: 9, Lambda: 1, Mu: 19}
	d, err := m.MeanOutageDuration()
	if err != nil {
		t.Fatal(err)
	}
	// The outage ends when the failed epoch member repairs (rate mu) —
	// but further failures among the remaining two members can extend it.
	// So d is slightly above 1/mu and far below 1/lambda.
	if d <= 1/19.0 || d >= 0.2 {
		t.Errorf("mean outage %.5g outside (1/19, 0.2)", d)
	}
	// Cross-check via the chain's stationary flow: unavailability ≈
	// (entry rate into U) × (mean outage). Entry rate = pi(A_3)·3λ.
	c, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	entry := pi[0] * 3 * m.Lambda // availIndex(3) == 0
	unavail, err := m.Unavailability()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(entry*d-unavail) / unavail; rel > 1e-6 {
		t.Errorf("flow identity violated: entry*d = %.6g, unavail = %.6g", entry*d, unavail)
	}
}

func TestDisconnectedChainSingular(t *testing.T) {
	// Two disconnected components have no unique stationary distribution.
	c := NewChain(4)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 0, 1)
	c.AddRate(2, 3, 1)
	c.AddRate(3, 2, 1)
	if _, err := c.Stationary(); err == nil {
		t.Error("disconnected chain solved without error")
	}
}
