package coterie

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"coterie/internal/nodeset"
)

func optInput(t *testing.T, rule Rule, n int) OptimizeInput {
	t.Helper()
	v := seqSet(n)
	lay := Compile(rule, v)
	in := OptimizeInput{
		Reads:    lay.EnumerateReadQuorums(0),
		Writes:   lay.EnumerateWriteQuorums(0),
		Members:  v.IDs(),
		ReadFrac: 0.5,
	}
	if len(in.Reads) == 0 || len(in.Writes) == 0 {
		t.Fatalf("%s n=%d: no candidates", rule.Name(), n)
	}
	return in
}

func checkSimplex(t *testing.T, name string, w []float64) {
	t.Helper()
	var sum float64
	for _, x := range w {
		if x < -1e-12 {
			t.Fatalf("%s: negative weight %v", name, x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("%s: weights sum to %v, want 1", name, sum)
	}
}

// TestOptimizeHomogeneousGrid: with equal capacities on a symmetric 3x3
// grid the solution must balance — peak utilization close to the uniform
// optimum, and no node starved or overloaded by more than a small factor.
func TestOptimizeHomogeneousGrid(t *testing.T) {
	in := optInput(t, Grid{}, 9)
	d, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	checkSimplex(t, "reads", d.ReadWeights)
	checkSimplex(t, "writes", d.WriteWeights)
	// 3x3 grid, 50/50 mix: a read touches 3 nodes, a write 5. Uniform
	// spreading gives per-node utilization (0.5·3 + 0.5·5)/9 = 4/9.
	want := 4.0 / 9.0
	if d.PeakUtil > want*1.10 {
		t.Errorf("peak utilization %v, want <= %v (within 10%% of balanced optimum)", d.PeakUtil, want*1.10)
	}
	if d.Capacity < 1/(want*1.10) {
		t.Errorf("predicted capacity %v too low", d.Capacity)
	}
}

// TestOptimizeHeterogeneousAvoidsWeakNode: a node with 1/10th capacity
// must end up with utilization comparable to the rest — i.e. the solver
// must route mass away from it.
func TestOptimizeHeterogeneousAvoidsWeakNode(t *testing.T) {
	in := optInput(t, Grid{}, 9)
	weak := nodeset.ID(4) // center of the 3x3 grid
	in.Capacity = func(id nodeset.ID) float64 {
		if id == weak {
			return 0.1
		}
		return 1
	}
	d, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	// Expected touch mass on the weak node must drop well below uniform
	// (uniform read mass would put 1/3 of reads through its column slot).
	// utilization × capacity recovers the expected touch mass per node.
	var weakMass, maxMass float64
	for i, id := range in.Members {
		if id == weak {
			weakMass = d.Utilization[i] * 0.1
		} else if m := d.Utilization[i]; m > maxMass {
			maxMass = m
		}
	}
	if weakMass > maxMass*0.5 {
		t.Errorf("weak node touch mass %v vs strongest peer %v: solver failed to shift load", weakMass, maxMass)
	}
	// And the solution must still beat the uniform distribution's peak.
	uniform := uniformPeak(in)
	if d.PeakUtil >= uniform {
		t.Errorf("optimized peak %v not better than uniform peak %v", d.PeakUtil, uniform)
	}
}

// uniformPeak computes max_i u_i for the uniform distribution over the
// same candidates — the baseline the solver must beat under heterogeneity.
func uniformPeak(in OptimizeInput) float64 {
	fr := in.ReadFrac
	if fr < 0 {
		fr = 0.5
	}
	util := make(map[nodeset.ID]float64, len(in.Members))
	for _, q := range in.Reads {
		for _, id := range q.IDs() {
			util[id] += fr / float64(len(in.Reads))
		}
	}
	for _, q := range in.Writes {
		for _, id := range q.IDs() {
			util[id] += (1 - fr) / float64(len(in.Writes))
		}
	}
	peak := 0.0
	for _, id := range in.Members {
		c := 1.0
		if in.Capacity != nil {
			c = in.Capacity(id)
		}
		if u := util[id] / c; u > peak {
			peak = u
		}
	}
	return peak
}

// TestOptimizeCertified: over a thousand seeded cases — six structures (the
// 30-member grid reaches the 256-candidate sampling), capacities log-uniform
// in [0.001, 1], five read fractions from pure write to pure read — the
// returned peak is within the tolerance of the returned lower bound, the
// bound really is one (no cheaper than the uniform distribution's peak says),
// both blocks are distributions, and a second solve of the same inputs is bit
// for bit the first.
func TestOptimizeCertified(t *testing.T) {
	structures := []struct {
		rule Rule
		n    int
	}{{Grid{}, 9}, {Grid{}, 12}, {Grid{}, 30}, {Majority{}, 7}, {Hierarchical{}, 9}, {Wheel{}, 8}}
	x := uint64(24)
	cases := 0
	for _, st := range structures {
		in := optInput(t, st.rule, st.n)
		for _, fr := range []float64{0, 0.1, 0.5, 0.9, 1} {
			for seed := 0; seed < 34; seed++ {
				caps := make(map[nodeset.ID]float64, st.n)
				for _, id := range in.Members {
					x = enumMix64(x)
					caps[id] = math.Pow(10, -3*float64(x>>11)/(1<<53))
				}
				in.ReadFrac, in.Capacity = fr, func(id nodeset.ID) float64 { return caps[id] }
				d, err := Optimize(in)
				if err != nil {
					t.Fatal(err)
				}
				cases++
				name := fmt.Sprintf("%s n=%d fr=%v seed %d", st.rule.Name(), st.n, fr, seed)
				checkSimplex(t, name+" reads", d.ReadWeights)
				checkSimplex(t, name+" writes", d.WriteWeights)
				if d.Bound <= 0 || d.PeakUtil > (1+optimizeTolerance)*d.Bound {
					t.Fatalf("%s: peak %v over bound %v by %.4f, tolerance %v", name, d.PeakUtil, d.Bound, d.PeakUtil/d.Bound-1, optimizeTolerance)
				}
				if u := uniformPeak(in); d.Bound > u*(1+1e-9) {
					t.Fatalf("%s: bound %v above the uniform distribution's peak %v", name, d.Bound, u)
				}
				again, _ := Optimize(in)
				if !reflect.DeepEqual(d, again) {
					t.Fatalf("%s: a second solve differs", name)
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("%d cases, want at least 1000", cases)
	}
}

// TestOptimizeLeavesOutWorthlessSeat: 3×3 grid, 90 % reads. Without node 4
// its column's other two members carry every read between them, peak 0.5; a
// node 4 of capacity c lowers that to 1/(2+c). At c = 0.1 the seat buys 4 %
// and is used, as little as the tolerance allows; at 0.01 and 0.001 it buys
// less than the tolerance and no candidate containing it has any mass.
func TestOptimizeLeavesOutWorthlessSeat(t *testing.T) {
	for _, tc := range []struct{ cap4, peak, minMass, maxMass float64 }{
		{0.1, 1.01 / 2.1, 0.03, 0.05},
		{0.01, 0.5, 0, 0},
		{0.001, 0.5, 0, 0},
	} {
		in := optInput(t, Grid{}, 9)
		in.ReadFrac = 0.9
		in.Capacity = func(id nodeset.ID) float64 {
			if id == 4 {
				return tc.cap4
			}
			return 1
		}
		d, err := Optimize(in)
		if err != nil {
			t.Fatal(err)
		}
		// Node 4's part of an operation: utilisation times capacity.
		mass := d.Utilization[4] * tc.cap4
		if mass < tc.minMass || mass > tc.maxMass {
			t.Errorf("cap 4 = %v: node 4 takes part in %.5f of the operations, want %v to %v", tc.cap4, mass, tc.minMass, tc.maxMass)
		}
		if math.Abs(d.PeakUtil-tc.peak) > 1e-6 {
			t.Errorf("cap 4 = %v: peak %.6f, want %.6f", tc.cap4, d.PeakUtil, tc.peak)
		}
		for i, u := range d.Utilization {
			if i != 4 && u > 0.5+1e-9 {
				t.Errorf("cap 4 = %v: node %d at %.4f, over the 0.5 it has without node 4", tc.cap4, i, u)
			}
		}
	}
}

// TestOptimizeKeepsComparableNodes: work is priced in octaves of capacity, so
// a node measured a tenth slower than its column-mates is not dropped for it
// (two of column 0's three could carry the column at 90 % reads, and least
// work to the last digit would let them), while one at 0.4 is.
func TestOptimizeKeepsComparableNodes(t *testing.T) {
	for _, tc := range []struct {
		cap3 float64
		used bool
	}{{0.9, true}, {0.4, false}} {
		in := optInput(t, Grid{}, 9)
		in.ReadFrac = 0.9
		in.Capacity = func(id nodeset.ID) float64 {
			switch id {
			case 4:
				return 0.002
			case 3:
				return tc.cap3
			}
			return 1
		}
		d, err := Optimize(in)
		if err != nil {
			t.Fatal(err)
		}
		if used := d.Utilization[3] > 0; used != tc.used {
			t.Errorf("node 3 at capacity %v: utilisation %.4f, want used = %v", tc.cap3, d.Utilization[3], tc.used)
		}
		if d.Utilization[4] != 0 {
			t.Errorf("node 3 at capacity %v: node 4 at 0.002 has utilisation %v", tc.cap3, d.Utilization[4])
		}
	}
}

// TestOptimizePureWriteMix: ReadFrac 0 is a real workload (all writes),
// not the unset sentinel — the strategy engine legitimately measures 0.0
// once enough write-only traffic is observed. The solve must model the
// full write pressure: on a 3x3 grid a write touches 5 nodes, so the
// balanced all-write peak is 5/9 — well above the 4/9 a 50/50 solve
// would report if 0 were silently replaced by 0.5.
func TestOptimizePureWriteMix(t *testing.T) {
	pure := optInput(t, Grid{}, 9)
	pure.ReadFrac = 0
	dp, err := Optimize(pure)
	if err != nil {
		t.Fatal(err)
	}
	unset := optInput(t, Grid{}, 9)
	unset.ReadFrac = -1
	du, err := Optimize(unset)
	if err != nil {
		t.Fatal(err)
	}
	if dp.PeakUtil < 5.0/9.0*0.98 {
		t.Errorf("pure-write peak %v below the 5/9 all-write lower bound: write pressure under-modeled", dp.PeakUtil)
	}
	if du.PeakUtil > 4.0/9.0*1.10 {
		t.Errorf("unset (negative) ReadFrac peak %v, want ~4/9 (50/50 default)", du.PeakUtil)
	}
	if dp.PeakUtil <= du.PeakUtil {
		t.Errorf("pure-write peak %v not above 50/50 peak %v", dp.PeakUtil, du.PeakUtil)
	}
}

// TestOptimizeErrors covers the degenerate-input contract.
func TestOptimizeErrors(t *testing.T) {
	v := seqSet(3)
	if _, err := Optimize(OptimizeInput{Writes: []nodeset.Set{v}, Members: v.IDs()}); err == nil {
		t.Error("want error for empty reads")
	}
	if _, err := Optimize(OptimizeInput{Reads: []nodeset.Set{v}, Members: v.IDs()}); err == nil {
		t.Error("want error for empty writes")
	}
	if _, err := Optimize(OptimizeInput{Reads: []nodeset.Set{v}, Writes: []nodeset.Set{v}}); err == nil {
		t.Error("want error for empty members")
	}
}

var optimizeSink Distribution

// BenchmarkOptimize times one strategy solve: grid9 is the bench's
// coterie.optimize_grid9_us input (3×3, 90 % reads, node 4 at a tenth), grid30
// reaches the 256-candidate sampling with every fifth node at a tenth.
func BenchmarkOptimize(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		slow func(nodeset.ID) bool
	}{
		{"grid9", 9, func(id nodeset.ID) bool { return id == 4 }},
		{"grid30", 30, func(id nodeset.ID) bool { return id%5 == 4 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			v := seqSet(bc.n)
			lay := Compile(Grid{}, v)
			in := OptimizeInput{
				Reads: lay.EnumerateReadQuorums(0), Writes: lay.EnumerateWriteQuorums(0),
				Members: v.IDs(), ReadFrac: 0.9,
				Capacity: func(id nodeset.ID) float64 {
					if bc.slow(id) {
						return 0.1
					}
					return 1
				},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				optimizeSink, _ = Optimize(in)
			}
		})
	}
}
