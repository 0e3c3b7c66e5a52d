package markov

import (
	"math"
	"strings"
	"testing"

	"coterie/internal/coterie"
)

// TestReadModelWriteSideMatchesFigure3 is the structural cross-check: the
// epoch chain under Figure 3's transition tracks which members of a
// blocked epoch are up, and lumping them by count must give exactly the
// Figure 3 chain on the write side — for Table 1's N = 9…30 too, where the
// masses reach 1e-33.
func TestReadModelWriteSideMatchesFigure3(t *testing.T) {
	type tc struct {
		n          int
		lambda, mu float64
	}
	cases := []tc{{6, 1, 3}, {4, 1, 2}, {5, 1, 3}}
	for n := 9; n <= 30; n++ {
		cases = append(cases, tc{n, 1, 19})
	}
	for _, tc := range cases {
		coarse, err := DynamicGridModel{N: tc.n, Lambda: tc.lambda, Mu: tc.mu}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		write, _, err := PaperReadModel(tc.n, tc.lambda, tc.mu).Unavailabilities()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(write-coarse) / coarse; rel > 1e-9 {
			t.Errorf("N=%d λ=%g μ=%g: read-model write %.8g vs Figure 3 %.8g (rel %.2g)",
				tc.n, tc.lambda, tc.mu, write, coarse, rel)
		}
	}
}

func TestReadAvailabilityBetterThanWrite(t *testing.T) {
	// Reads survive some write-blocked states (b plus one of a/c up), so
	// read unavailability is strictly smaller.
	for _, n := range []int{6, 9} {
		write, read, err := PaperReadModel(n, 1, 3).Unavailabilities()
		if err != nil {
			t.Fatal(err)
		}
		if read <= 0 || read >= write {
			t.Errorf("N=%d: read %.5g not in (0, write=%.5g)", n, read, write)
		}
	}
}

// TestReadAvailableBlockedPredicate: the 3-member grid is a b / c −, so a
// blocked epoch still reads while b and one of a, c are up.
func TestReadAvailableBlockedPredicate(t *testing.T) {
	const a, b, c = 1 << 0, 1 << 1, 1 << 2
	cases := map[uint64]bool{
		0:     false, // nobody up
		a:     false, // column 2 uncovered
		b:     false, // column 1 uncovered
		c:     false,
		a | c: false, // column 2 uncovered
		a | b: true,
		b | c: true,
	}
	read := PaperReadModel(9, 1, 19).Read
	for s, want := range cases {
		if got := read(3, s); got != want {
			t.Errorf("s=%03b: %v, want %v", s, got, want)
		}
	}
}

func TestReadModelErrors(t *testing.T) {
	for _, m := range []EpochModel{
		PaperReadModel(0, 1, 1),
		PaperReadModel(65, 1, 1),
		PaperReadModel(9, 0, 1),
		PaperReadModel(9, 1, -1),
		{N: 9, Lambda: 1, Mu: 1, Write: Paper},
	} {
		if _, _, err := m.Unavailabilities(); err == nil {
			t.Errorf("N=%d λ=%g μ=%g accepted", m.N, m.Lambda, m.Mu)
		}
	}
}

// TestReadModelStatesCount: under Figure 3's transition only 3-member
// epochs block, so the chain is A_3…A_N and seven blocked masks times
// N−2 outsider counts: 8(N−2) states.
func TestReadModelStatesCount(t *testing.T) {
	for _, n := range []int{9, 30} {
		c, _, err := PaperReadModel(n, 1, 19).chain()
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != 8*(n-2) {
			t.Errorf("N=%d: states = %d, want %d", n, c.Len(), 8*(n-2))
		}
	}
}

// TestRuleChainStates pins the size of the protocol-exact grid chain: every
// blocked up-mask any epoch size can reach, with its outsider count.
func TestRuleChainStates(t *testing.T) {
	for n, want := range map[int]int{5: 54, 9: 182, 12: 278, 30: 854} {
		c, states, err := RuleModel(coterie.Grid{}, n, 1, 3).chain()
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != want {
			t.Errorf("N=%d: %d states, want %d", n, c.Len(), want)
		}
		if s := states[0]; s.k != n || s.up != allUp(n) || s.j != 0 {
			t.Errorf("N=%d: state 0 is %+v, want every node up in one epoch", n, s)
		}
	}
}

// TestPlainVotingIsTheMajorityChain: dynamic voting's participation set is
// an epoch under coterie.Majority — with k ≥ 3 members it survives a
// failure, with two it blocks — so the rule chain is the old hand-built
// one, A_2…A_N and a blocked 2-set times N−1 outsider counts, with the
// one-member-up case split by which member it is: 4(N−1) states.
func TestPlainVotingIsTheMajorityChain(t *testing.T) {
	for _, n := range []int{3, 9, 12} {
		c, _, err := RuleModel(coterie.Majority{}, n, 1, 19).chain()
		if err != nil {
			t.Fatal(err)
		}
		if want := 4 * (n - 1); c.Len() != want {
			t.Errorf("N=%d: %d states, want %d", n, c.Len(), want)
		}
	}
}

func TestSweep(t *testing.T) {
	points, err := Sweep(9, []float64{3, 9, 19})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	prev := SweepPoint{DynamicGrid: math.Inf(1), StaticGrid: math.Inf(1)}
	for _, pt := range points {
		// All unavailabilities decrease as nodes get more reliable.
		if pt.DynamicGrid >= prev.DynamicGrid || pt.StaticGrid >= prev.StaticGrid {
			t.Errorf("non-decreasing series at ratio %g", pt.MuOverLambda)
		}
		// Ordering at every point: dynamic read <= dynamic write <<
		// static grid; dynamic voting <= dynamic grid; rowa worst.
		if pt.DynamicRead > pt.DynamicGrid {
			t.Errorf("ratio %g: read %.3g > write %.3g", pt.MuOverLambda, pt.DynamicRead, pt.DynamicGrid)
		}
		if pt.DynamicGrid >= pt.StaticGrid {
			t.Errorf("ratio %g: dynamic %.3g >= static %.3g", pt.MuOverLambda, pt.DynamicGrid, pt.StaticGrid)
		}
		if pt.DynVoting > pt.DynamicGrid {
			t.Errorf("ratio %g: voting %.3g > grid %.3g", pt.MuOverLambda, pt.DynVoting, pt.DynamicGrid)
		}
		if pt.ROWA <= pt.StaticGrid {
			t.Errorf("ratio %g: rowa %.3g not worst", pt.MuOverLambda, pt.ROWA)
		}
		prev = pt
	}
	if _, err := Sweep(9, []float64{0}); err == nil {
		t.Error("zero ratio accepted")
	}
	out := FormatSweep(9, points)
	if !strings.Contains(out, "N = 9") || !strings.Contains(out, "dyn-grid") {
		t.Errorf("FormatSweep output: %q", out)
	}
}
