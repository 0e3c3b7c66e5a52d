package markov

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"coterie/internal/coterie"
)

// TestPaperTable1Static verifies the static-grid column of the paper's
// Table 1 to the printed precision (0.01e-6), including the best-dimension
// search.
func TestPaperTable1Static(t *testing.T) {
	want := []struct {
		n, m, cols int
		unavailE6  float64
	}{
		{9, 3, 3, 3268.59},
		{12, 3, 4, 912.25},
		{15, 3, 5, 683.60},
		{16, 4, 4, 1208.75},
		{20, 4, 5, 250.82},
		{24, 4, 6, 78.23},
		{30, 5, 6, 135.90},
	}
	p := PaperTable1Params().P()
	if math.Abs(p-0.95) > 1e-15 {
		t.Fatalf("p = %v, want 0.95", p)
	}
	for _, w := range want {
		shape, u := BestStaticGrid(w.n, p, true)
		if shape.M != w.m || shape.N != w.cols {
			t.Errorf("N=%d: best shape %v, want %dx%d", w.n, shape, w.m, w.cols)
		}
		if math.Abs(u*1e6-w.unavailE6) > 0.005 {
			t.Errorf("N=%d: static unavailability %.2fe-6, want %.2fe-6", w.n, u*1e6, w.unavailE6)
		}
	}
}

// TestPaperTable1Dynamic verifies the dynamic-grid column against the
// paper's printed values (within 1.5% — the paper prints 2-4 significant
// digits).
func TestPaperTable1Dynamic(t *testing.T) {
	want := map[int]float64{
		9:  0.18e-6,
		12: 0.6e-10,
		15: 1.564e-14,
	}
	for n, wu := range want {
		m := DynamicGridModel{N: n, Lambda: 1, Mu: 19}
		u, err := m.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(u-wu)/wu > 0.02 {
			t.Errorf("N=%d: dynamic unavailability %.4g, want %.4g", n, u, wu)
		}
	}
	// N=16 is reported "negligible": well below the N=15 value.
	m := DynamicGridModel{N: 16, Lambda: 1, Mu: 19}
	u, err := m.Unavailability()
	if err != nil {
		t.Fatal(err)
	}
	if u >= 1e-14 || u <= 0 {
		t.Errorf("N=16: %.4g, want (0, 1e-14)", u)
	}
}

func TestTable1EndToEnd(t *testing.T) {
	rows, err := Table1(PaperTable1Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	// The improvement is "several orders of magnitude" for every row.
	for _, r := range rows {
		if r.DynamicUF64 <= 0 {
			t.Errorf("N=%d: non-positive dynamic unavailability %g", r.N, r.DynamicUF64)
		}
		if r.StaticU/r.DynamicUF64 < 1e3 {
			t.Errorf("N=%d: improvement only %.1fx", r.N, r.StaticU/r.DynamicUF64)
		}
	}
	out := FormatTable1(rows)
	for _, frag := range []string{"3x3", "3268.59", "5x6", "Dynamic Grid"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatTable1 missing %q:\n%s", frag, out)
		}
	}
}

// TestStaticGridAgainstEnumeration cross-checks the closed form against the
// exact layout-driven enumeration of the coterie predicate over all up-sets.
func TestStaticGridAgainstEnumeration(t *testing.T) {
	p := 0.95
	for _, tc := range []struct {
		n      int
		strict bool
	}{
		{4, true}, {4, false}, {5, true}, {5, false},
		{6, true}, {9, true}, {9, false}, {12, true}, {7, false}, {3, true}, {3, false},
	} {
		shape := coterie.DefineGrid(tc.n)
		_, exact, err := EnumeratedAvailability(coterie.Grid{Strict: tc.strict}, tc.n, p)
		if err != nil {
			t.Fatal(err)
		}
		formula := StaticGridWriteAvailability(shape, p, tc.strict)
		if math.Abs(formula-exact) > 1e-12 {
			t.Errorf("N=%d strict=%v: formula %.12f vs enumeration %.12f",
				tc.n, tc.strict, formula, exact)
		}
	}
}

func TestStaticGridReadAgainstEnumeration(t *testing.T) {
	p := 0.9
	for _, n := range []int{3, 5, 9} {
		shape := coterie.DefineGrid(n)
		exact, _, err := EnumeratedAvailability(coterie.Grid{}, n, p)
		if err != nil {
			t.Fatal(err)
		}
		formula := StaticGridReadAvailability(shape, p)
		if math.Abs(formula-exact) > 1e-12 {
			t.Errorf("N=%d: read formula %.12f vs enumeration %.12f", n, formula, exact)
		}
	}
}

// TestEnumeratedAvailabilityMajority anchors the enumerator on the closed
// form for majority voting: write availability = P(more than half up).
func TestEnumeratedAvailabilityMajority(t *testing.T) {
	for _, n := range []int{1, 2, 5, 7, 10} {
		p := 0.8
		_, write, err := EnumeratedAvailability(coterie.Majority{}, n, p)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for k := n/2 + 1; k <= n; k++ {
			want += float64(binomial(n, k)) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		}
		if math.Abs(write-want) > 1e-12 {
			t.Errorf("N=%d: enumerated %.12f vs binomial %.12f", n, write, want)
		}
	}
	if _, _, err := EnumeratedAvailability(coterie.Majority{}, 0, 0.5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := EnumeratedAvailability(coterie.Majority{}, EnumerateLimit+1, 0.5); err == nil {
		t.Error("n over limit accepted")
	}
	if _, _, err := EnumeratedAvailability(coterie.Majority{}, 3, 1.5); err == nil {
		t.Error("p=1.5 accepted")
	}
}

func binomial(n, k int) int64 {
	c := int64(1)
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
	}
	return c
}

func TestStaticGridDegenerate(t *testing.T) {
	if StaticGridWriteAvailability(coterie.GridShape{}, 0.9, false) != 0 {
		t.Error("zero shape available")
	}
	if StaticGridReadAvailability(coterie.GridShape{}, 0.9) != 0 {
		t.Error("zero shape read-available")
	}
	// Single node: availability = p.
	s := coterie.GridShape{M: 1, N: 1}
	if math.Abs(StaticGridWriteAvailability(s, 0.7, false)-0.7) > 1e-15 {
		t.Error("1x1 grid availability != p")
	}
}

func TestOptimizedStaticGridAtLeastStrict(t *testing.T) {
	for n := 2; n <= 40; n++ {
		shape := coterie.DefineGrid(n)
		opt := StaticGridWriteAvailability(shape, 0.95, false)
		strict := StaticGridWriteAvailability(shape, 0.95, true)
		if opt < strict-1e-15 {
			t.Errorf("N=%d: optimization reduced availability (%.9f < %.9f)", n, opt, strict)
		}
	}
}

func TestDynamicGridModelErrors(t *testing.T) {
	if _, err := (DynamicGridModel{N: 3, Lambda: 1, Mu: 19}).Chain(); err == nil {
		t.Error("N=3 accepted")
	}
	if _, err := (DynamicGridModel{N: 9, Lambda: 0, Mu: 19}).Chain(); err == nil {
		t.Error("lambda=0 accepted")
	}
	if _, err := (DynamicGridModel{N: 9, Lambda: 1, Mu: -1}).Chain(); err == nil {
		t.Error("mu<0 accepted")
	}
}

// TestDynamicGridChainAgainstSimulation validates the analytic chain by
// simulating its own transition structure and comparing long-run
// unavailable fractions. Uses a high lambda so unavailability is large
// enough to measure by simulation.
func TestDynamicGridChainAgainstSimulation(t *testing.T) {
	model := DynamicGridModel{N: 6, Lambda: 1, Mu: 3}
	c, err := model.Chain()
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := model.Unavailability()
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo over the CTMC itself.
	type edge struct {
		to   int
		rate float64
	}
	out := make([][]edge, c.Len())
	c.Transitions(func(i, j int, rate float64) {
		out[i] = append(out[i], edge{j, rate})
	})
	isUnavail := func(s int) bool { return s >= model.N-2 }
	r := rand.New(rand.NewSource(1))
	state := model.N - 3 // A_N
	tUnavail, tTotal := 0.0, 0.0
	for step := 0; step < 2_000_000; step++ {
		total := 0.0
		for _, e := range out[state] {
			total += e.rate
		}
		dt := r.ExpFloat64() / total
		tTotal += dt
		if isUnavail(state) {
			tUnavail += dt
		}
		x := r.Float64() * total
		for _, e := range out[state] {
			x -= e.rate
			if x <= 0 {
				state = e.to
				break
			}
		}
	}
	got := tUnavail / tTotal
	if math.Abs(got-analytic)/analytic > 0.15 {
		t.Errorf("simulated unavailability %.4g vs analytic %.4g", got, analytic)
	}
}

func TestRenderChain(t *testing.T) {
	m := DynamicGridModel{N: 5, Lambda: 1, Mu: 19}
	out, err := m.RenderChain()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"A(5,5,0)", "A(3,3,0)", "U(2,3,0)", "U(0,3,2)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("RenderChain missing %q:\n%s", frag, out)
		}
	}
	if _, err := (DynamicGridModel{N: 2, Lambda: 1, Mu: 1}).RenderChain(); err == nil {
		t.Error("RenderChain accepted N=2")
	}
}

func TestDynamicGridStatesCount(t *testing.T) {
	m := DynamicGridModel{N: 9, Lambda: 1, Mu: 19}
	c, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != m.States() || m.States() != 4*(9-2) {
		t.Errorf("states = %d, want %d", c.Len(), 4*(9-2))
	}
}

func TestDynamicGridMonotoneInN(t *testing.T) {
	prev := math.Inf(1)
	for n := 4; n <= 14; n++ {
		u, err := DynamicGridModel{N: n, Lambda: 1, Mu: 19}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		if u <= 0 || u >= prev {
			t.Errorf("N=%d: unavailability %.4g not decreasing (prev %.4g)", n, u, prev)
		}
		prev = u
	}
}

// TestProtocolTable1 checks the protocol-exact table's shape and what it
// shows: the real grid blocks far more often than Figure 3's idealised
// transition (its 2×3 five-member epoch with one missing position cannot
// lose its one-node column), and the majority column is plain dynamic
// voting.
func TestProtocolTable1(t *testing.T) {
	rules := []coterie.Rule{coterie.Grid{}, coterie.Majority{}}
	params := PaperTable1Params()
	rows, err := ProtocolTable1(params, rules)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Table1(params)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row.N != params.NodeCounts[i] || len(row.Write) != len(rules) {
			t.Fatalf("row %d: %+v", i, row)
		}
		if grid, fig3 := row.Write[0], paper[i].DynamicUF64; grid < 100*fig3 {
			t.Errorf("N=%d: protocol-exact grid %.4g not far above Figure 3's %.4g", row.N, grid, fig3)
		}
		voting, err := DynamicVotingModel{N: row.N, Lambda: params.Lambda, Mu: params.Mu}.Unavailability()
		if err != nil {
			t.Fatal(err)
		}
		if row.Write[1] != voting {
			t.Errorf("N=%d: majority column %.17g, plain dynamic voting %.17g", row.N, row.Write[1], voting)
		}
	}
	out := FormatProtocolTable1(rules, rows)
	for _, frag := range []string{"Nodes  grid", "majority", "\n30 "} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatProtocolTable1 missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, " \n") {
		t.Errorf("FormatProtocolTable1 leaves trailing spaces:\n%s", out)
	}
}
