package markov

import (
	"fmt"
	"math"
	"testing"
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
