package workload

import (
	"testing"
)

// TestZipfRankOrdering is the frequency property: lower ranks must be
// drawn more often. Exact adjacent-rank ordering is noisy at finite
// sample sizes, so the check compares coarse rank bands, which must be
// strictly ordered for any genuinely Zipfian stream.
func TestZipfRankOrdering(t *testing.T) {
	z, err := NewZipf(1000, DefaultZipfTheta, 42)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 200000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	band := func(lo, hi int) int {
		s := 0
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		return s
	}
	b0, b1, b2, b3 := band(0, 10), band(10, 100), band(100, 500), band(500, 1000)
	if !(b0 > 0 && b1 > 0 && b2 > 0 && b3 > 0) {
		t.Fatalf("empty band: %d %d %d %d", b0, b1, b2, b3)
	}
	// Per-key frequency must fall across bands: normalize by band width.
	f0, f1, f2, f3 := float64(b0)/10, float64(b1)/90, float64(b2)/400, float64(b3)/500
	if !(f0 > f1 && f1 > f2 && f2 > f3) {
		t.Fatalf("per-key band frequencies not decreasing: %.1f %.1f %.1f %.1f", f0, f1, f2, f3)
	}
	// Zipf theta≈1 concentration: the hottest 10% of keys should carry
	// around half the draws; accept a generous [35%, 75%] window.
	hot := band(0, 100)
	if frac := float64(hot) / draws; frac < 0.35 || frac > 0.75 {
		t.Fatalf("hottest 10%% of keys drew %.2f of traffic, want ~0.5", frac)
	}
}

func TestZipfDeterministicUnderSeed(t *testing.T) {
	a, _ := NewZipf(5000, 0.9, 7)
	b, _ := NewZipf(5000, 0.9, 7)
	c, _ := NewZipf(5000, 0.9, 8)
	same, diff := true, false
	for i := 0; i < 10000; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestZipfSplit checks the per-worker contract: children are deterministic
// (splitting twice from identically seeded parents gives identical
// streams), pairwise decorrelated, and still Zipfian in aggregate.
func TestZipfSplit(t *testing.T) {
	parent1, _ := NewZipf(1000, DefaultZipfTheta, 99)
	parent2, _ := NewZipf(1000, DefaultZipfTheta, 99)
	kids1, err := parent1.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	kids2, _ := parent2.Split(4)

	counts := make([]int, 1000)
	for k := 0; k < 4; k++ {
		for i := 0; i < 20000; i++ {
			x, y := kids1[k].Next(), kids2[k].Next()
			if x != y {
				t.Fatalf("child %d: split not deterministic at draw %d", k, i)
			}
			counts[x]++
		}
	}
	// Decorrelation: two sibling children must not replay one stream.
	p, _ := NewZipf(1000, DefaultZipfTheta, 123)
	sibs, _ := p.Split(2)
	match := 0
	for i := 0; i < 5000; i++ {
		if sibs[0].Next() == sibs[1].Next() {
			match++
		}
	}
	if match > 2500 {
		t.Fatalf("sibling streams agree on %d/5000 draws — correlated", match)
	}
	// Aggregate of children remains rank-ordered at the coarse level.
	if counts[0] < counts[500] {
		t.Fatalf("aggregate child stream lost Zipfian shape: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestZipfRejectsBadConfig(t *testing.T) {
	if _, err := NewZipf(0, 0.5, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(10, 0, 1); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := NewZipf(10, 1, 1); err == nil {
		t.Error("theta=1 accepted")
	}
	if _, err := NewZipf(10, 1.2, 1); err == nil {
		t.Error("theta>1 accepted")
	}
}

func TestZipfBounds(t *testing.T) {
	z, _ := NewZipf(17, 0.99, 3)
	for i := 0; i < 100000; i++ {
		if k := z.Next(); k >= 17 {
			t.Fatalf("draw %d out of range", k)
		}
	}
}

// TestZipfNextDoesNotAllocate is the zero-alloc gate on the key draw —
// the loadgen hot loop draws once per operation.
func TestZipfNextDoesNotAllocate(t *testing.T) {
	z, err := NewZipf(1_000_000, DefaultZipfTheta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = z.Next() }); allocs != 0 {
		t.Fatalf("Zipf.Next allocates %.1f per draw, want 0", allocs)
	}
}
