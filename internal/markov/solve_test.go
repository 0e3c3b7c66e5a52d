package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, -4}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != -4 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x = 2, y = 1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{7, 9}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 9 || x[1] != 7 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := solve(a, []float64{1, 2}); err == nil {
		t.Error("no error for singular matrix")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := solve(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("rhs length mismatch accepted")
	}
	if _, err := solve([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	if _, err := solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != -1 || b[0] != 5 {
		t.Error("solve mutated its inputs")
	}
}

func randomLinearSystem(r *rand.Rand, n int) ([][]float64, []float64, []float64) {
	// Build a well-conditioned system from a known solution.
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = r.NormFloat64()
	}
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = r.NormFloat64()
		}
		a[i][i] += float64(n) // diagonal dominance
		for j := range a[i] {
			b[i] += a[i][j] * xTrue[j]
		}
	}
	return a, b, xTrue
}

func TestQuickSolveRandomSystems(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a, b, xTrue := randomLinearSystem(r, n)
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
