package coterie

import (
	"math"
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

// TestOptimizeReadSizeBias: under Majority{ReadQuorumSize:2} on 7 nodes the
// read candidates all have size 2 — bias is a no-op. Under a ratio grid
// (tall) vs the sampled hierarchical fallback candidates sizes vary; use
// majority with mixed-size read candidates built by hand to check the bias
// skews mass toward small quorums.
func TestOptimizeReadSizeBias(t *testing.T) {
	v := seqSet(6)
	// Hand-built candidate mix: two small reads {0,1}, {2,3} and one large
	// read {0,1,2,3,4,5}; writes = majorities.
	small1 := nodeset.New(0, 1)
	small2 := nodeset.New(2, 3)
	large := seqSet(6)
	lay := Compile(Majority{}, v)
	in := OptimizeInput{
		Reads:        []nodeset.Set{large, small1, small2},
		Writes:       lay.EnumerateWriteQuorums(0),
		Members:      v.IDs(),
		ReadFrac:     0.95,
		ReadSizeBias: 0.05,
	}
	d, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if d.ReadWeights[0] > 0.2 {
		t.Errorf("large read quorum weight %v, want < 0.2 under size bias", d.ReadWeights[0])
	}
	if d.ReadWeights[1]+d.ReadWeights[2] < 0.8 {
		t.Errorf("small read quorums got %v total, want >= 0.8", d.ReadWeights[1]+d.ReadWeights[2])
	}
}

// TestOptimizeDeterministic is the CI convergence gate: fixed inputs (the
// "seed" fixes the pseudo-random capacity vector) must converge to the
// identical distribution on every run, and to a peak utilization within
// 10% of the uniform lower bound certificate.
func TestOptimizeDeterministic(t *testing.T) {
	in := optInput(t, Grid{}, 12)
	seed := uint64(0x9e3779b97f4a7c15) // fixed seed for the capacity draw
	caps := make(map[nodeset.ID]float64, 12)
	x := seed
	for _, id := range in.Members {
		x = enumMix64(x)
		caps[id] = 0.5 + float64(x%1000)/1000.0 // capacities in [0.5, 1.5)
	}
	in.Capacity = func(id nodeset.ID) float64 { return caps[id] }
	first, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		d, err := Optimize(in)
		if err != nil {
			t.Fatal(err)
		}
		for k := range first.ReadWeights {
			if d.ReadWeights[k] != first.ReadWeights[k] {
				t.Fatalf("run %d: read weight %d differs: %v vs %v", run, k, d.ReadWeights[k], first.ReadWeights[k])
			}
		}
		for k := range first.WriteWeights {
			if d.WriteWeights[k] != first.WriteWeights[k] {
				t.Fatalf("run %d: write weight %d differs: %v vs %v", run, k, d.WriteWeights[k], first.WriteWeights[k])
			}
		}
		if d.PeakUtil != first.PeakUtil {
			t.Fatalf("run %d: peak differs: %v vs %v", run, d.PeakUtil, first.PeakUtil)
		}
	}
	// Convergence quality: beat (or match within 2%) the uniform baseline.
	if u := uniformPeak(in); first.PeakUtil > u*1.02 {
		t.Errorf("converged peak %v worse than uniform baseline %v", first.PeakUtil, u)
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
