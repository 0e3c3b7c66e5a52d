package markov

import (
	"fmt"
	"math"
	"testing"

	"coterie/internal/coterie"
)

// The golden values below were solved by the 192-bit big.Float Gaussian
// elimination this package used before GTH, and printed to 17 digits. The
// float64 GTH solve must match every one of them to 1e-9 relative.
const goldenTol = 1e-9

func checkGolden(t *testing.T, what string, got, want float64) {
	t.Helper()
	if rel := math.Abs(got-want) / want; !(rel <= goldenTol) {
		t.Errorf("%s = %.17g, want %.17g (rel %.2g)", what, got, want, rel)
	}
}

// TestGoldenTable1Dynamic: Table 1's dynamic column, N = 9…30.
func TestGoldenTable1Dynamic(t *testing.T) {
	want := map[int]float64{
		9:  1.8291360367558314e-07,
		12: 6.0308520273969788e-11,
		15: 1.5649809364862234e-14,
		16: 9.6392184319133774e-16,
		20: 1.2295593909515828e-20,
		24: 1.366591464031135e-25,
		30: 4.2899311867657438e-33,
	}
	rows, err := Table1(PaperTable1Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		checkGolden(t, fmt.Sprintf("Table 1 N=%d", r.N), r.DynamicUF64, want[r.N])
	}
}

// TestGoldenReadModel: the grid read model (Figure 3's transition, the
// grid's read quorums) at N ∈ {5, 9, 12} × μ ∈ {3, 19}, λ = 1.
func TestGoldenReadModel(t *testing.T) {
	for _, g := range []struct {
		n           int
		mu          float64
		write, read float64
	}{
		{5, 3, 0.23961860962655682, 0.12304739413255619},
		{5, 19, 0.0033701639512478281, 0.0012375974544897809},
		{9, 3, 0.0099185484998360624, 0.0050933086891050052},
		{9, 19, 1.8291360367558314e-07, 6.7169850955363125e-08},
		{12, 3, 0.00043326191603644369, 0.0002224858487754711},
		{12, 19, 6.0308520273969788e-11, 2.2146599469582246e-11},
	} {
		write, read, err := PaperReadModel(g.n, 1, g.mu).Unavailabilities()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("write N=%d mu=%g", g.n, g.mu), write, g.write)
		checkGolden(t, fmt.Sprintf("read N=%d mu=%g", g.n, g.mu), read, g.read)
	}
}

// TestGoldenPlainVoting: plain dynamic voting, N = 3…12, λ = 1, μ = 19.
func TestGoldenPlainVoting(t *testing.T) {
	want := []float64{
		0.0139059375,
		0.0014095414856100969,
		0.00011858218958687303,
		8.9445316622706232e-06,
		6.2845690001166527e-07,
		4.2007422727877053e-08,
		2.7057611752361257e-09,
		1.6936583322456485e-10,
		1.0362599718618177e-11,
		6.2236651942423764e-13,
	}
	for i, w := range want {
		n := 3 + i
		got, err := DynamicVotingModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("voting N=%d", n), got, w)
	}
}

// TestStationaryKeepsSmallMasses: Chain.Stationary on the N = 30 Figure 3
// chain resolves the 4.29e-33 unavailable mass beside states of mass near
// one. The subtracting float64 elimination it replaced returned 9.04e-37.
func TestStationaryKeepsSmallMasses(t *testing.T) {
	m := DynamicGridModel{N: 30, Lambda: 1, Mu: 19}
	c, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	u := 0.0
	for _, p := range pi[m.unavailIndex(0, 0):] {
		u += p
	}
	checkGolden(t, "Figure 3 N=30", u, 4.2899311867657438e-33)
}

// TestWheelChainIsDynamicLinearVoting: dynamic-linear voting, N = 3…12,
// λ = 1, μ ∈ {3, 19}, is the wheel rule's epoch chain. A wheel epoch of
// three or more survives any one failure, and a two-member wheel's one
// quorum is its spoke — it survives losing the hub, not the spoke, as a
// dynamic-linear 2-set survives losing all but its distinguished member.
// The values are those of the hand-built chain DynamicVotingModel{Linear}
// solved before it became RuleModel(coterie.Wheel{}, …) (A_k for k up
// members, U_z for the distinguished node down with z others up): two
// solves of different chains by the same GTH elimination, so the tolerance
// is rounding's.
func TestWheelChainIsDynamicLinearVoting(t *testing.T) {
	for _, g := range []struct {
		mu   float64
		want []float64
	}{
		{3, []float64{
			0.14453125000000003,
			0.068557997881355928,
			0.028466909642032329,
			0.01074062521841607,
			0.0037819610505146505,
			0.0012661820252880124,
			0.00040820114515826151,
			0.00012782293112175011,
			3.9112958467253807e-05,
			1.1746092529877548e-05,
		}},
		{19, []float64{
			0.0071312499999999987,
			0.00071163229242185151,
			5.9327121618411376e-05,
			4.4507956898188256e-06,
			3.1160516754524486e-07,
			2.0775667591429069e-08,
			1.3356617452133207e-09,
			8.3482429602975717e-11,
			5.1018605890711066e-12,
			3.0611860730201215e-13,
		}},
	} {
		for i, w := range g.want {
			n := 3 + i
			wheel, _, err := RuleModel(coterie.Wheel{}, n, 1, g.mu).Unavailabilities()
			if err != nil {
				t.Fatal(err)
			}
			linear, err := DynamicVotingModel{N: n, Lambda: 1, Mu: g.mu, Linear: true}.Unavailability()
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []float64{wheel, linear} {
				if rel := math.Abs(got-w) / w; !(rel <= 1e-12) {
					t.Errorf("N=%d mu=%g: wheel %.17g, dynamic-linear %.17g, want %.17g (rel %.2g)", n, g.mu, wheel, linear, w, rel)
				}
			}
		}
	}
}
