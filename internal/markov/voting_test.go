package markov

import (
	"math"
	"testing"

	"coterie/internal/coterie"
)

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 12} {
		for _, p := range []float64{0.1, 0.5, 0.95} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += binomialPMF(n, k, p)
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("n=%d p=%v: pmf sums to %v", n, p, sum)
			}
		}
	}
}

func TestBinomialTailEdges(t *testing.T) {
	if binomialTail(5, 0, 0.3) != 1 {
		t.Error("tail at 0 != 1")
	}
	if binomialTail(5, 6, 0.3) != 0 {
		t.Error("tail beyond n != 0")
	}
	if math.Abs(binomialTail(2, 2, 0.5)-0.25) > 1e-12 {
		t.Error("P(X>=2), X~B(2,0.5) != 0.25")
	}
}

func TestStaticMajorityAvailability(t *testing.T) {
	// N=3, p=0.95: need >= 2 up. 3*p^2*(1-p) + p^3.
	want := 3*0.95*0.95*0.05 + 0.95*0.95*0.95
	got := StaticMajorityWriteAvailability(3, 0.95)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestROWAAvailability(t *testing.T) {
	if math.Abs(ROWAWriteAvailability(4, 0.9)-math.Pow(0.9, 4)) > 1e-15 {
		t.Error("ROWA write availability wrong")
	}
	if math.Abs(ROWAReadAvailability(4, 0.9)-(1-math.Pow(0.1, 4))) > 1e-15 {
		t.Error("ROWA read availability wrong")
	}
}

// TestGridBeatsMajorityOnQuorumSizeNotAvailability sanity-checks the
// paper's Section 1 framing: for the static protocols at N=9, p=0.95,
// majority voting is *more* available than the grid (availability is the
// price the grid pays for small quorums).
func TestGridBeatsMajorityOnQuorumSizeNotAvailability(t *testing.T) {
	grid := StaticGridWriteAvailability(coterie.DefineGrid(9), 0.95, true)
	maj := StaticMajorityWriteAvailability(9, 0.95)
	if grid >= maj {
		t.Errorf("grid %.6f >= majority %.6f", grid, maj)
	}
}

// bestShapeFor returns the unavailability-minimizing static grid at p=0.95.
func bestShapeFor(n int) coterie.GridShape {
	shape, _ := BestStaticGrid(n, 0.95, true)
	return shape
}

func TestDynamicVotingErrors(t *testing.T) {
	if _, err := (DynamicVotingModel{N: 0, Lambda: 1, Mu: 19}).Unavailability(); err == nil {
		t.Error("plain variant accepted N=0")
	}
	if _, err := (DynamicVotingModel{N: 1, Lambda: 1, Mu: 19, Linear: true}).Unavailability(); err == nil {
		t.Error("linear variant accepted N=1")
	}
	for _, linear := range []bool{false, true} {
		if _, err := (DynamicVotingModel{N: 5, Lambda: 0, Mu: 19, Linear: linear}).Unavailability(); err == nil {
			t.Errorf("linear=%v: lambda=0 accepted", linear)
		}
	}
}

func TestDynamicVotingBeatsStaticMajority(t *testing.T) {
	for _, n := range []int{5, 9, 12} {
		dyn, err := DynamicVotingModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		static := 1 - StaticMajorityWriteAvailability(n, 0.95)
		if dyn >= static {
			t.Errorf("N=%d: dynamic voting %.4g not better than static %.4g", n, dyn, static)
		}
	}
}

func TestLinearVotingBeatsPlain(t *testing.T) {
	for _, n := range []int{4, 9} {
		plain, err := DynamicVotingModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		linear, err := DynamicVotingModel{N: n, Lambda: 1, Mu: 19, Linear: true}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		if linear >= plain {
			t.Errorf("N=%d: linear %.4g not better than plain %.4g", n, linear, plain)
		}
	}
}

// TestDynamicVotingVsDynamicGrid reproduces the paper's Section 2
// positioning: both dynamic protocols keep the item available down to a
// handful of nodes, and plain dynamic voting (floor 2) is somewhat more
// available than the dynamic grid (floor 3) at equal N.
func TestDynamicVotingVsDynamicGrid(t *testing.T) {
	for _, n := range []int{9, 12} {
		grid, err := DynamicGridModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		voting, err := DynamicVotingModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		if voting >= grid {
			t.Errorf("N=%d: dynamic voting %.4g not better than dynamic grid %.4g", n, voting, grid)
		}
		// But both are far better than the static grid.
		staticU := StaticGridWriteUnavailability(bestShapeFor(n), 0.95, true)
		if grid >= staticU {
			t.Errorf("N=%d: dynamic grid %.4g worse than static %.4g", n, grid, staticU)
		}
	}
}
