package markov

import (
	"math"
	"strings"
	"testing"

	"coterie/internal/coterie"
)

// TestStrategyMatrixGridExact: on a 3×3 grid the candidate enumeration is
// exact (every minimal read transversal and write column+cover), so the
// weighted strategy's candidate availability must coincide with the
// rule's — the fallback adds nothing the distribution cannot already
// serve.
func TestStrategyMatrixGridExact(t *testing.T) {
	const n, p = 9, 0.95
	cells, err := StrategyMatrix([]NamedRule{{Name: "grid", Rule: coterie.Grid{}}}, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(StrategyNames()) {
		t.Fatalf("got %d cells, want %d", len(cells), len(StrategyNames()))
	}
	read, write, err := EnumeratedAvailability(coterie.Grid{}, n, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Read != read || c.Write != write {
			t.Errorf("%s/%s rule availability %g/%g, want %g/%g", c.Rule, c.Strategy, c.Read, c.Write, read, write)
		}
		if math.Abs(c.CandidateRead-read) > 1e-12 || math.Abs(c.CandidateWrite-write) > 1e-12 {
			t.Errorf("%s/%s candidate availability %g/%g, want exact %g/%g",
				c.Rule, c.Strategy, c.CandidateRead, c.CandidateWrite, read, write)
		}
	}
}

// TestStrategySampledCandidatesLoseMass: Majority over 12 nodes has
// C(12,7) = 792 write quorums, above the enumeration limit, so the
// weighted strategy samples — its candidate write availability may
// only fall below the rule's, never above, and must stay meaningful.
func TestStrategySampledCandidatesLoseMass(t *testing.T) {
	cell, err := StrategyAvailability(coterie.Majority{}, 12, 0.95, "optimized")
	if err != nil {
		t.Fatal(err)
	}
	if cell.CandidateWrite > cell.Write+1e-12 {
		t.Fatalf("candidate write availability %g above the rule's %g", cell.CandidateWrite, cell.Write)
	}
	if cell.CandidateRead > cell.Read+1e-12 {
		t.Fatalf("candidate read availability %g above the rule's %g", cell.CandidateRead, cell.Read)
	}
	if cell.CandidateWrite < 0.5 {
		t.Fatalf("sampled candidate write availability %g implausibly low", cell.CandidateWrite)
	}
}

// TestStrategyMatrixFormat smoke-checks the rendering: every rule and
// strategy label must appear.
func TestStrategyMatrixFormat(t *testing.T) {
	cells, err := StrategyMatrix([]NamedRule{
		{Name: "grid", Rule: coterie.Grid{}},
		{Name: "majority", Rule: coterie.Majority{}},
	}, 9, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatStrategyMatrix(cells)
	for _, want := range append(StrategyNames(), "grid", "majority") {
		if !strings.Contains(out, want) {
			t.Errorf("rendered matrix missing %q:\n%s", want, out)
		}
	}
}

// TestStrategyAvailabilityBounds pins the argument validation.
func TestStrategyAvailabilityBounds(t *testing.T) {
	if _, err := StrategyAvailability(coterie.Grid{}, EnumerateLimit+1, 0.95, "optimized"); err == nil {
		t.Error("oversized n accepted")
	}
	if _, err := StrategyAvailability(coterie.Grid{}, 9, 1.5, "optimized"); err == nil {
		t.Error("p > 1 accepted")
	}
}
