package coterie

import (
	"fmt"
	"math"

	"coterie/internal/nodeset"
)

// Quorum-distribution optimizer.
//
// Given the candidate read and write quorums a Layout admits and per-node
// capacities, Optimize solves for a probability distribution over the
// candidates that maximizes sustainable throughput: the load-maximizing
// weighted quorum systems of Whittaker et al. ("Read-Write Quorum Systems
// Made Practical"), with WOC-style heterogeneous node weights.
//
// The LP is
//
//	min  z                        (peak utilisation; capacity is 1/z)
//	s.t. Σ_r p_r = 1, Σ_w q_w = 1, p,q ≥ 0
//	     ∀i:  fr·Σ_{r∋i} p_r + (1-fr)·Σ_{w∋i} q_w ≤ cap_i·z
//
// and it is solved twice by one dense primal simplex over the enumerated
// columns (at most 256 + 256 of them and one row per member). The first
// solve minimises z; its row prices λ certify the answer, because for any
// λ ≥ 0 every distribution's peak is at least
//
//	(fr·min_r Σ_{i∈r} λ_i + (1-fr)·min_w Σ_{i∈w} λ_i) / Σ_i λ_i·cap_i
//
// (Distribution.Bound, one pass over the candidates). The second solve keeps
// the peak within optimizeTolerance of that bound and minimises each
// candidate's price offset: the work it costs, Σ_{i∈k} f_k/cap_i (Whittaker's
// second objective; 1/cap_i rounded down to a power of two). A seat that
// buys less than the tolerance only adds work, so it gets exactly zero
// mass. Pivoting rules and arithmetic are deterministic: every replica that
// feeds the solver identical inputs computes the identical distribution.
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
	Capacity CapacityFunc
}

// CapacityFunc reports a node's relative service capacity: only ratios
// matter, and 1 is an ordinary node.
type CapacityFunc func(nodeset.ID) float64

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
	// value (parallel to Members). Bound is the certificate: no distribution
	// over these candidates has a lower peak, and PeakUtil is at most
	// (1 + optimizeTolerance) times it.
	PeakUtil    float64
	Bound       float64
	Utilization []float64
}

const (
	// optimizeTolerance is how far above the certified optimum the peak may
	// sit: the slack the second solve spends on doing less work.
	optimizeTolerance = 0.01
	capEpsilon        = 1e-6
	pivotEpsilon      = 1e-9
)

// Program is the part of a solve that depends only on the candidates and the
// member universe; an epoch's Program is built once and solved every tick.
type Program struct {
	members []nodeset.ID
	// cands[k] lists candidate k's positions in members: reads, of which
	// there are nr, then writes.
	cands [][]int
	nr    int
}

// NewProgram resolves the candidates against the members. It returns an
// error when either candidate block or Members is empty; the caller falls
// back to the hint rotation in that case.
func NewProgram(reads, writes []nodeset.Set, members []nodeset.ID) (*Program, error) {
	if len(reads) == 0 || len(writes) == 0 {
		return nil, fmt.Errorf("coterie: optimize needs candidates (reads=%d writes=%d)", len(reads), len(writes))
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("coterie: optimize needs a member universe")
	}
	index := make(map[nodeset.ID]int, len(members))
	for i, id := range members {
		index[id] = i
	}
	pr := &Program{members: members, nr: len(reads)}
	for _, sets := range [2][]nodeset.Set{reads, writes} {
		for _, s := range sets {
			at := make([]int, 0, s.Len())
			for _, id := range s.IDs() {
				if i, ok := index[id]; ok {
					at = append(at, i)
				}
			}
			pr.cands = append(pr.cands, at)
		}
	}
	return pr, nil
}

// Optimize solves for the capacity-maximizing distribution.
func Optimize(in OptimizeInput) (Distribution, error) {
	pr, err := NewProgram(in.Reads, in.Writes, in.Members)
	if err != nil {
		return Distribution{}, err
	}
	return pr.Solve(in.ReadFrac, in.Capacity), nil
}

// Solve runs both solves for one read fraction and capacity vector (see
// OptimizeInput for the arguments' meaning).
func (pr *Program) Solve(fr float64, capacity CapacityFunc) Distribution {
	switch {
	case fr < 0: // negative sentinel: caller has no measured mix
		fr = 0.5
	case fr == 0: // pure-write workload: clamp inside (0,1) so reads keep finite prices
		fr = 1e-3
	case fr >= 1: // pure-read workload: same clamp on the other side
		fr = 1 - 1e-3
	}
	n, nr := len(pr.members), pr.nr
	caps := make([]float64, n)
	for i, id := range pr.members {
		caps[i] = 1
		if capacity != nil {
			caps[i] = max(capacity(id), capEpsilon)
		}
	}
	share := func(k int) float64 { // candidate k's part of an operation
		if k < nr {
			return fr
		}
		return 1 - fr
	}

	// Columns: the candidates, z, one slack per member, the right-hand side.
	// Row i < n is member i's capacity constraint multiplied through by
	// cap_i, so its entries are shares and not shares over a capacity:
	// Σ_{k∋i} f_k·x_k − cap_i·z + s_i = 0. Rows n and n+1 are Σp = 1, Σq = 1.
	zc := len(pr.cands)
	t := newTableau(n+2, zc+1+n)
	for k, at := range pr.cands {
		for _, i := range at {
			t.rows[i][k] = share(k)
		}
		if k < nr {
			t.rows[n][k] = 1
		} else {
			t.rows[n+1][k] = 1
		}
	}
	for i := range caps {
		t.rows[i][zc], t.rows[i][zc+1+i], t.basis[i] = -caps[i], 1, zc+1+i
	}
	t.rows[n][t.rhs], t.rows[n+1][t.rhs] = 1, 1
	t.obj[zc] = 1
	// A first basis without artificial variables: the first read and the
	// first write at weight 1, and z brought in on the member they load
	// most, which leaves every other member's slack non-negative.
	t.pivot(n, 0)
	t.pivot(n+1, nr)
	worst := 0
	for i := range caps {
		if t.rows[i][t.rhs]*caps[worst] < t.rows[worst][t.rhs]*caps[i] {
			worst = i
		}
	}
	t.pivot(worst, zc)
	t.run()

	// The first solve's prices are the slacks' reduced costs.
	lambda := make([]float64, n)
	for i := range lambda {
		lambda[i] = max(t.obj[zc+1+i], 0)
	}
	bound := pr.bound(fr, caps, lambda)

	// Second solve. z ≤ τ becomes a variable of its own by writing
	// z = τ − z': z is basic, so only its row changes, and z' takes its
	// place there with the value τ − z ≥ 0. pivotEpsilon keeps rounding inside
	// the tolerance, so the certificate holds on the numbers returned.
	zr := 0
	for t.basis[zr] != zc {
		zr++
	}
	tau := max(bound*(1+optimizeTolerance-pivotEpsilon), t.rows[zr][t.rhs])
	for j := range t.rows[zr] {
		t.rows[zr][j] = -t.rows[zr][j]
	}
	t.rows[zr][zc], t.rows[zr][t.rhs] = 1, tau+t.rows[zr][t.rhs]
	// Work is counted in octaves of capacity: measured capacities of equal
	// nodes differ by tens of percent from solve to solve, and a price that
	// followed them would drop a healthy node for being the slowest by a hair.
	clear(t.obj)
	for k, at := range pr.cands {
		for _, i := range at {
			t.obj[k] += share(k) * math.Exp2(math.Floor(-math.Log2(caps[i])))
		}
	}
	for r, b := range t.basis {
		if c := t.obj[b]; c != 0 {
			for j, a := range t.rows[r] {
				t.obj[j] -= c * a
			}
			t.obj[b] = 0
		}
	}
	t.run()

	// The simplex stops at a vertex: at most n+2 candidates carry mass, and
	// which of many equally good ones is an accident of pivoting order. Every
	// non-basic column whose reduced cost is zero leads to a neighbouring
	// vertex with the same work inside the same peak; the answer is the
	// centroid of this vertex (j = t.rhs, no step) and those neighbours, which
	// shares the load over all of them and still gives nothing to a candidate
	// that would add work. A weight below pivotEpsilon is rounding.
	x := make([]float64, zc)
	for _, b := range t.basis {
		t.obj[b] = math.Inf(1)
	}
	for j := 0; j <= t.rhs; j++ {
		theta := 0.0
		if j < t.rhs {
			if t.obj[j] > pivotEpsilon {
				continue
			}
			if _, theta = t.leaving(j); theta <= pivotEpsilon {
				continue
			}
			if j < zc {
				x[j] += theta
			}
		}
		for r, b := range t.basis {
			if b < zc {
				x[b] += t.rows[r][t.rhs] - theta*t.rows[r][j]
			}
		}
	}
	d := Distribution{ReadWeights: x[:nr:nr], WriteWeights: x[nr:], Bound: bound, Utilization: make([]float64, n)}
	for _, w := range [2][]float64{d.ReadWeights, d.WriteWeights} {
		var sum float64
		for k, v := range w {
			if v < pivotEpsilon {
				w[k] = 0
			}
			sum += w[k]
		}
		for k := range w {
			w[k] /= sum
		}
	}
	for k, at := range pr.cands {
		for _, i := range at {
			d.Utilization[i] += share(k) * x[k] / caps[i]
		}
	}
	for _, u := range d.Utilization {
		d.PeakUtil = max(d.PeakUtil, u)
	}
	d.Capacity = 1 / d.PeakUtil // a read and a write are drawn, so somebody is loaded
	return d
}

// bound prices every candidate at λ and returns the lower bound on peak
// utilisation the cheapest read and the cheapest write certify.
func (pr *Program) bound(fr float64, caps, lambda []float64) float64 {
	cheapest := func(cands [][]int) float64 {
		least := math.Inf(1)
		for _, at := range cands {
			var c float64
			for _, i := range at {
				c += lambda[i]
			}
			least = min(least, c)
		}
		return least
	}
	var norm float64
	for i, l := range lambda {
		norm += l * caps[i]
	}
	if norm <= 0 {
		return 0
	}
	return (fr*cheapest(pr.cands[:pr.nr]) + (1-fr)*cheapest(pr.cands[pr.nr:])) / norm
}

// tableau is a dense simplex tableau: rows[r] is constraint r in terms of the
// non-basic variables with its right-hand side last, basis[r] the variable
// basic in it. One more row, obj, holds the reduced costs of the objective
// being minimised, so a pivot eliminates in it as in any other.
type tableau struct {
	rows  [][]float64
	obj   []float64
	basis []int
	rhs   int
}

func newTableau(m, vars int) *tableau {
	t := &tableau{rows: make([][]float64, m+1), basis: make([]int, m), rhs: vars}
	cells := make([]float64, (m+1)*(vars+1))
	for r := range t.rows {
		t.rows[r] = cells[r*(vars+1) : (r+1)*(vars+1)]
	}
	t.obj = t.rows[m]
	return t
}

// pivot makes variable e basic in row l.
func (t *tableau) pivot(l, e int) {
	row := t.rows[l]
	inv := 1 / row[e]
	for j := range row {
		row[j] *= inv
	}
	row[e] = 1
	for r, other := range t.rows {
		if f := other[e]; r != l && f != 0 {
			for j, a := range row {
				other[j] -= f * a
			}
			other[e] = 0
		}
	}
	t.basis[l] = e
}

// leaving is the ratio test: the row whose basic variable reaches zero first
// as variable e enters, ties to the lowest basic index, and how far e gets.
// No row (-1) means nothing stops it.
func (t *tableau) leaving(e int) (l int, ratio float64) {
	l = -1
	for r, row := range t.rows[:len(t.basis)] {
		if a := row[e]; a > pivotEpsilon {
			q := row[t.rhs] / a
			if l < 0 || q < ratio || q == ratio && t.basis[r] < t.basis[l] {
				l, ratio = r, q
			}
		}
	}
	return l, ratio
}

// run pivots from a feasible basis to an optimal one: the most negative
// reduced cost enters, the smallest ratio leaves, ties to the lowest index.
// After a pivot that moved nothing the lowest eligible index enters instead
// (Bland's rule), which is what rules cycling out on these very degenerate
// programs. The pivot budget is a backstop against rounding, never reached
// in the tests; a basis it stops at is feasible and its gap is reported.
func (t *tableau) run() {
	bland := false
	for budget := 50 * (len(t.rows) + t.rhs); budget > 0; budget-- {
		e, best := -1, -pivotEpsilon
		for j, d := range t.obj[:t.rhs] {
			if d < best {
				e, best = j, d
				if bland {
					break
				}
			}
		}
		if e < 0 {
			return
		}
		l, ratio := t.leaving(e)
		if l < 0 {
			return // unbounded: not possible over two simplices
		}
		bland = ratio <= pivotEpsilon
		t.pivot(l, e)
	}
}
