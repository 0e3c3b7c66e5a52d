// Package markov builds and solves the continuous-time Markov chains of the
// paper's availability analysis (Section 6) and provides closed-form
// availability expressions for the baseline protocols.
//
// The site model of availability assumes reliable links, independent
// Poisson failures (rate λ) and repairs (rate μ) at every node, and
// instantaneous operations; epoch checking runs between any two consecutive
// failure/repair events. Under these assumptions the system state evolves
// as a CTMC whose stationary distribution yields the long-run availability
// by the classical global-balance technique.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// Chain is a finite continuous-time Markov chain under construction.
// States are dense integers 0..n-1; transition rates accumulate, so calling
// AddRate twice for the same pair sums the rates.
type Chain struct {
	n     int
	rates map[[2]int]float64
}

// NewChain returns a chain with n states and no transitions.
func NewChain(n int) *Chain {
	return &Chain{n: n, rates: make(map[[2]int]float64)}
}

// Len returns the number of states.
func (c *Chain) Len() int { return c.n }

// AddRate adds a transition from state i to state j at the given rate.
// Self-loops and non-positive rates are ignored (they do not affect the
// stationary distribution).
func (c *Chain) AddRate(i, j int, rate float64) {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("markov: transition %d->%d outside [0,%d)", i, j, c.n))
	}
	if i == j || rate <= 0 {
		return
	}
	c.rates[[2]int{i, j}] += rate
}

// Rate returns the accumulated rate from i to j.
func (c *Chain) Rate(i, j int) float64 { return c.rates[[2]int{i, j}] }

// Transitions invokes fn for every transition in unspecified order.
func (c *Chain) Transitions(fn func(i, j int, rate float64)) {
	for k, r := range c.rates {
		fn(k[0], k[1], r)
	}
}

// Stationary returns the stationary distribution of an irreducible chain,
// solved by Grassmann–Taksar–Heyman elimination. GTH censors the states
// out one at a time, from the last down to state 0: a state's rates into
// the states still left are redistributed over its paths back, each
// divided by its total rate into them. The rates and the divisors are
// sums of positive terms, never differences, so every stationary mass
// keeps its relative precision in float64 however small it is — Table 1's
// dynamic column reaches 4.3e-33 at N = 30, next to states of mass near 1.
func (c *Chain) Stationary() ([]float64, error) {
	n := c.n
	if n == 0 {
		return nil, errors.New("markov: empty chain")
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for k, r := range c.rates {
		q[k[0]][k[1]] = r
	}
	for k := n - 1; k > 0; k-- {
		qk := q[k][:k]
		s := 0.0
		for _, r := range qk {
			s += r
		}
		if s == 0 {
			return nil, fmt.Errorf("markov: state %d cannot reach states 0..%d: the chain is not irreducible", k, k-1)
		}
		for i := 0; i < k; i++ {
			qi := q[i]
			if qi[k] == 0 {
				continue
			}
			qi[k] /= s
			f := qi[k]
			for j, r := range qk {
				qi[j] += f * r
			}
		}
	}
	// q[i][k] is now the rate from i into k in the chain censored to
	// 0..k, over k's total rate back: state k's balance equation.
	pi := make([]float64, n)
	pi[0] = 1
	total := 1.0
	for k := 1; k < n; k++ {
		for i := 0; i < k; i++ {
			pi[k] += pi[i] * q[i][k]
		}
		total += pi[k]
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi, nil
}

// MeanHittingTimes returns, for every state, the expected time until the
// chain first enters any of the target states (zero for the targets
// themselves). For a CTMC the hitting times h satisfy
//
//	h_i = 0                                   i ∈ targets
//	h_i = 1/λ_i + Σ_j (q_ij/λ_i) · h_j        otherwise
//
// with λ_i the state's total exit rate. States that cannot reach a target
// make the system singular, which surfaces as an error.
func (c *Chain) MeanHittingTimes(targets []int) ([]float64, error) {
	isTarget := make([]bool, c.n)
	for _, t := range targets {
		if t < 0 || t >= c.n {
			return nil, fmt.Errorf("markov: target state %d outside [0,%d)", t, c.n)
		}
		isTarget[t] = true
	}
	// Build the linear system over non-target states:
	// λ_i·h_i − Σ_{j∉targets} q_ij·h_j = 1.
	idx := make([]int, 0, c.n)
	pos := make([]int, c.n)
	for i := 0; i < c.n; i++ {
		pos[i] = -1
		if !isTarget[i] {
			pos[i] = len(idx)
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return make([]float64, c.n), nil
	}
	m := len(idx)
	a := make([][]float64, m)
	b := make([]float64, m)
	for r := range a {
		a[r] = make([]float64, m)
		b[r] = 1
	}
	for k, rate := range c.rates {
		i, j := k[0], k[1]
		if isTarget[i] {
			continue
		}
		a[pos[i]][pos[i]] += rate // λ_i on the diagonal
		if !isTarget[j] {
			a[pos[i]][pos[j]] -= rate
		}
	}
	h, err := solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: hitting times unsolvable (absorbing region?): %w", err)
	}
	out := make([]float64, c.n)
	for r, i := range idx {
		out[i] = h[r]
	}
	return out, nil
}

// solve solves a·x = b by Gaussian elimination with partial pivoting.
// a must be square with len(a) == len(b). The inputs are not modified.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("markov: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("markov: dimension mismatch: %d rows, %d rhs", n, len(b))
	}
	// Working copy: augmented matrix.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("markov: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}

	for col := 0; col < n; col++ {
		// Partial pivoting.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if m[pivot][col] == 0 {
			return nil, errors.New("markov: singular matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}

	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}
