package coterie

import (
	"fmt"
	"math"

	"coterie/internal/nodeset"
)

// Quorum-distribution optimizer.
//
// Given the candidate read and write quorums a Layout admits and per-node
// capacity weights, Optimize solves for a probability distribution over the
// candidates that maximizes sustainable throughput: the load-maximizing
// weighted quorum systems of Whittaker et al. ("Read-Write Quorum Systems
// Made Practical"), with WOC-style heterogeneous node weights.
//
// The LP is
//
//	max  C                        (sustained ops/sec)
//	s.t. Σ_r p_r = 1, Σ_w q_w = 1, p,q ≥ 0
//	     ∀i:  C·(fr·Σ_{r∋i} p_r + (1-fr)·Σ_{w∋i} q_w) ≤ cap_i
//
// equivalently: minimize the peak normalized per-node utilization
// u_i = x_i/cap_i where x_i is node i's expected per-op touch rate. We
// solve the minimax by Frank-Wolfe on the softmax-smoothed objective
// (1/η)·log Σ_i exp(η·u_i): each iteration prices every node at the
// softmax gradient s_i/cap_i, picks the cheapest candidate quorum per
// block (the linear minimization oracle is exactly "cheapest quorum under
// current prices"), and steps with γ_t = 2/(t+2). The iteration count is
// fixed and the arithmetic is deterministic, so every replica that feeds
// the solver identical inputs computes the identical distribution.
type OptimizeInput struct {
	// Reads and Writes are the candidate quorums (see EnumerateReadQuorums /
	// EnumerateWriteQuorums). Both must be non-empty.
	Reads  []nodeset.Set
	Writes []nodeset.Set
	// Members is the node universe utilization is tracked over; usually the
	// layout epoch's IDs.
	Members []nodeset.ID
	// ReadFrac is the expected fraction of operations that are reads, in
	// [0,1]. Negative means unset (0.5 is assumed). The boundary values
	// are genuine workloads — 0 is pure-write, 1 is pure-read — and are
	// clamped just inside (0,1) so both blocks keep finite prices.
	ReadFrac float64
	// Capacity returns node i's relative service capacity (ops/sec scale;
	// only ratios matter). nil means homogeneous capacity 1.0. Values ≤ 0
	// are clamped to a small epsilon so a mis-configured node is avoided
	// rather than dividing by zero.
	Capacity LoadFunc
	// ReadSizeBias adds bias·|r| to each read candidate's price in the
	// linear oracle, skewing read mass toward small (cheap) quorums — the
	// read-dominant mode per Kumar & Agarwal. 0 disables. The solved
	// objective becomes peak-utilization + bias·E[|read quorum|].
	ReadSizeBias float64
	// Iters is the Frank-Wolfe iteration count (0 = 300). Eta is the
	// softmax sharpness (0 = 32).
	Iters int
	Eta   float64
}

// Distribution is a solved weighted quorum strategy.
type Distribution struct {
	// ReadWeights[k] / WriteWeights[k] are the probabilities assigned to
	// input candidate k. Each block sums to 1.
	ReadWeights  []float64
	WriteWeights []float64
	// Capacity is the predicted sustainable throughput 1/max_i u_i in
	// multiples of a single unit-capacity node's rate.
	Capacity float64
	// PeakUtil is max_i u_i at the solution, Utilization the per-member
	// value (parallel to Members).
	PeakUtil    float64
	Utilization []float64
}

const (
	defaultIters = 300
	defaultEta   = 32.0
	capEpsilon   = 1e-6
)

// Optimize solves for the capacity-maximizing distribution. It returns an
// error when either candidate block is empty or Members is empty; the
// caller falls back to the unweighted strategies in that case.
func Optimize(in OptimizeInput) (Distribution, error) {
	if len(in.Reads) == 0 || len(in.Writes) == 0 {
		return Distribution{}, fmt.Errorf("coterie: optimize needs candidates (reads=%d writes=%d)", len(in.Reads), len(in.Writes))
	}
	if len(in.Members) == 0 {
		return Distribution{}, fmt.Errorf("coterie: optimize needs a member universe")
	}
	fr := in.ReadFrac
	switch {
	case fr < 0: // negative sentinel: caller has no measured mix
		fr = 0.5
	case fr == 0: // pure-write workload: clamp inside (0,1) so reads keep finite prices
		fr = 1e-3
	case fr >= 1: // pure-read workload: same clamp on the other side
		fr = 1 - 1e-3
	}
	iters := in.Iters
	if iters <= 0 {
		iters = defaultIters
	}
	eta := in.Eta
	if eta <= 0 {
		eta = defaultEta
	}

	n := len(in.Members)
	index := make(map[nodeset.ID]int, n)
	cap_ := make([]float64, n)
	for i, id := range in.Members {
		index[id] = i
		c := 1.0
		if in.Capacity != nil {
			c = in.Capacity(id)
		}
		if c < capEpsilon {
			c = capEpsilon
		}
		cap_[i] = c
	}

	// Per-candidate member index lists, resolved once.
	rIdx := memberIndexLists(in.Reads, index)
	wIdx := memberIndexLists(in.Writes, index)

	p := uniformVec(len(in.Reads))
	q := uniformVec(len(in.Writes))
	util := make([]float64, n)
	price := make([]float64, n)

	computeUtil := func() {
		clear(util)
		for k, members := range rIdx {
			w := fr * p[k]
			for _, i := range members {
				util[i] += w
			}
		}
		for k, members := range wIdx {
			w := (1 - fr) * q[k]
			for _, i := range members {
				util[i] += w
			}
		}
		for i := range util {
			util[i] /= cap_[i]
		}
	}

	for t := 0; t < iters; t++ {
		computeUtil()
		// Softmax prices s_i (stabilized by max subtraction); the price of
		// touching node i is s_i/cap_i.
		maxU := util[0]
		for _, u := range util[1:] {
			if u > maxU {
				maxU = u
			}
		}
		var z float64
		for i, u := range util {
			e := math.Exp(eta * (u - maxU))
			price[i] = e
			z += e
		}
		for i := range price {
			price[i] = price[i] / z / cap_[i]
		}
		// Linear minimization oracle per block: cheapest candidate.
		br, bw := 0, 0
		best := math.Inf(1)
		for k, members := range rIdx {
			c := in.ReadSizeBias * float64(len(members))
			for _, i := range members {
				c += fr * price[i]
			}
			if c < best {
				best, br = c, k
			}
		}
		best = math.Inf(1)
		for k, members := range wIdx {
			var c float64
			for _, i := range members {
				c += (1 - fr) * price[i]
			}
			if c < best {
				best, bw = c, k
			}
		}
		gamma := 2.0 / float64(t+2)
		for k := range p {
			p[k] *= 1 - gamma
		}
		p[br] += gamma
		for k := range q {
			q[k] *= 1 - gamma
		}
		q[bw] += gamma
	}

	computeUtil()
	peak := 0.0
	for _, u := range util {
		if u > peak {
			peak = u
		}
	}
	d := Distribution{
		ReadWeights:  p,
		WriteWeights: q,
		PeakUtil:     peak,
		Utilization:  util,
	}
	if peak > 0 {
		d.Capacity = 1 / peak
	}
	return d, nil
}

func memberIndexLists(sets []nodeset.Set, index map[nodeset.ID]int) [][]int {
	out := make([][]int, len(sets))
	for k, s := range sets {
		ids := s.IDs()
		lst := make([]int, 0, len(ids))
		for _, id := range ids {
			if i, ok := index[id]; ok {
				lst = append(lst, i)
			}
		}
		out[k] = lst
	}
	return out
}

func uniformVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	return v
}
