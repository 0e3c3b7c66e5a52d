package sim

import (
	"fmt"
	"math"
	"testing"

	"coterie/internal/coterie"
	"coterie/internal/markov"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 1, Lambda: 1, Mu: 1, Horizon: 10},
		{N: 5, Lambda: 0, Mu: 1, Horizon: 10},
		{N: 5, Lambda: 1, Mu: -1, Horizon: 10},
		{N: 5, Lambda: 1, Mu: 1, Horizon: 0},
		{N: 3, Lambda: 1, Mu: 1, Horizon: 10, Model: ModelPaper},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := Config{N: 6, Lambda: 1, Mu: 3, Horizon: 500, Seed: 42, Model: ModelProtocol}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

// TestPaperModelMatchesMarkov is the simulator's calibration: under the
// Figure 3 assumptions the long-run write unavailability must match the
// chain's stationary value. High lambda keeps the target measurable.
func TestPaperModelMatchesMarkov(t *testing.T) {
	model := markov.DynamicGridModel{N: 6, Lambda: 1, Mu: 3}
	want, err := model.Unavailability()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: 6, Lambda: 1, Mu: 3, Horizon: 150_000, Seed: 7, Model: ModelPaper})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.WriteUnavailFrac-want) / want; rel > 0.1 {
		t.Errorf("simulated %.5g vs analytic %.5g (rel err %.2f)", res.WriteUnavailFrac, want, rel)
	}
}

// TestProtocolModelVsPaperModel pins down the ablation both ways. The
// paper's chain assumes every epoch of ≥ 4 nodes tolerates one failure,
// but DefineGrid(5) = 2x3 with an unoccupied position leaves a column with
// a single physical node, so a 5-node epoch blocks when that node fails.
// Every shrink trajectory from N ≥ 6 passes through epoch size 5, making
// the protocol-exact unavailability *higher* than the paper model's in a
// failure-heavy regime. Conversely at N = 5 itself, the partial-column
// optimization lets 3-node epochs survive most failures and eases
// recovery, so protocol-exact comes out *lower*.
func TestProtocolModelVsPaperModel(t *testing.T) {
	run := func(n int, m Model) float64 {
		t.Helper()
		res, err := Run(Config{N: n, Lambda: 1, Mu: 3, Horizon: 100_000, Seed: 3, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		return res.WriteUnavailFrac
	}
	if proto, paper := run(9, ModelProtocol), run(9, ModelPaper); proto <= paper {
		t.Errorf("N=9: expected protocol-exact (%.5g) worse than paper model (%.5g): size-5 epochs block",
			proto, paper)
	}
	if proto, paper := run(5, ModelProtocol), run(5, ModelPaper); proto >= paper {
		t.Errorf("N=5: expected protocol-exact (%.5g) better than paper model (%.5g): optimization eases recovery",
			proto, paper)
	}
}

// TestOptimizationImprovesProtocolAvailability compares the protocol-exact
// simulation under the strict grid rule against the optimized one: the
// partial-column optimization only adds quorums, so it cannot hurt.
func TestOptimizationImprovesProtocolAvailability(t *testing.T) {
	for _, n := range []int{5, 9} {
		strict, err := Run(Config{N: n, Lambda: 1, Mu: 3, Horizon: 100_000, Seed: 6, Model: ModelProtocol, Rule: coterie.Grid{Strict: true}})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Run(Config{N: n, Lambda: 1, Mu: 3, Horizon: 100_000, Seed: 6, Model: ModelProtocol, Rule: coterie.Grid{}})
		if err != nil {
			t.Fatal(err)
		}
		if opt.WriteUnavailFrac > strict.WriteUnavailFrac*1.05+1e-9 {
			t.Errorf("N=%d: optimized (%.5g) worse than strict (%.5g)", n, opt.WriteUnavailFrac, strict.WriteUnavailFrac)
		}
	}
}

// TestRuleChainMatchesSimulation holds the protocol-exact epoch chain to the
// simulator that evaluates the same rule event by event, on write and read
// unavailability alike (matchesChain). λ = 1, μ = 3 is E6's regime, where
// blocked epochs are common enough to measure (write unavailability 9e-4
// to 0.18 here).
func TestRuleChainMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		rule coterie.Rule
		n    int
	}{
		{coterie.Grid{}, 5}, {coterie.Grid{}, 9}, {coterie.Majority{}, 5}, {coterie.Majority{}, 9},
	} {
		matchesChain(t, fmt.Sprintf("%s N=%d", tc.rule.Name(), tc.n), markov.RuleModel(tc.rule, tc.n, 1, 3),
			Config{N: tc.n, Lambda: 1, Mu: 3, Horizon: 20_000, Model: ModelProtocol, Rule: tc.rule})
	}
}

// TestPaperModelMatchesPaperReadModel holds ModelPaper to the chain of the
// same transition, markov.PaperReadModel, on reads as well as writes. At
// N = 9 the chain's read side is half its write side (0.0051 against
// 0.0099): a simulator that read only when it could write misses by about
// seventy standard errors. The longer horizon keeps the N = 9 means within
// two.
func TestPaperModelMatchesPaperReadModel(t *testing.T) {
	for _, n := range []int{5, 9} {
		matchesChain(t, fmt.Sprintf("paper N=%d", n), markov.PaperReadModel(n, 1, 3),
			Config{N: n, Lambda: 1, Mu: 3, Horizon: 50_000, Model: ModelPaper})
	}
}

// matchesChain runs cfg under ten seeds and holds chain's write and read
// unavailability to the simulated ones: each must lie within four standard
// errors of the seeds' mean, the error estimated from their spread. For a
// correct chain |t| > 4 at nine degrees of freedom has probability about
// 0.3 %; the seeds are fixed, so the test is deterministic.
func matchesChain(t *testing.T, what string, chain markov.EpochModel, cfg Config) {
	t.Helper()
	write, read, err := chain.Unavailabilities()
	if err != nil {
		t.Fatal(err)
	}
	var w, r meanOf
	for cfg.Seed = 1; cfg.Seed <= 10; cfg.Seed++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.add(res.WriteUnavailFrac)
		r.add(res.ReadUnavailFrac)
	}
	for _, c := range []struct {
		side  string
		chain float64
		sim   meanOf
	}{{"write", write, w}, {"read", read, r}} {
		mean, stderr := c.sim.mean(), c.sim.stderr()
		t.Logf("%s %s: chain %.4g, simulation %.4g ± %.2g", what, c.side, c.chain, mean, stderr)
		if math.Abs(mean-c.chain) > 4*stderr {
			t.Errorf("%s %s: chain %.5g outside simulation %.5g ± 4×%.2g", what, c.side, c.chain, mean, stderr)
		}
	}
}

// meanOf accumulates a sample's mean and the standard error of that mean.
type meanOf struct{ n, sum, sumSq float64 }

func (m *meanOf) add(x float64) { m.n++; m.sum += x; m.sumSq += x * x }
func (m meanOf) mean() float64  { return m.sum / m.n }
func (m meanOf) stderr() float64 {
	mean := m.mean()
	return math.Sqrt((m.sumSq/m.n - mean*mean) / (m.n - 1))
}

func TestReadAvailabilityAtLeastWrite(t *testing.T) {
	res, err := Run(Config{N: 9, Lambda: 1, Mu: 2, Horizon: 50_000, Seed: 11, Model: ModelProtocol})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadUnavailFrac > res.WriteUnavailFrac+1e-12 {
		t.Errorf("read unavailability %.5g exceeds write %.5g", res.ReadUnavailFrac, res.WriteUnavailFrac)
	}
}

func TestPeriodicCheckingDegradesAvailability(t *testing.T) {
	// Rare epoch checks let failures accumulate: unavailability grows.
	fast, err := Run(Config{N: 9, Lambda: 1, Mu: 3, Horizon: 100_000, Seed: 2, Model: ModelProtocol})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{N: 9, Lambda: 1, Mu: 3, Horizon: 100_000, Seed: 2, Model: ModelProtocol, CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if slow.WriteUnavailFrac <= fast.WriteUnavailFrac {
		t.Errorf("periodic checks (%.5g) not worse than instantaneous (%.5g)",
			slow.WriteUnavailFrac, fast.WriteUnavailFrac)
	}
	// But still far better than never adapting at all (static).
	static := markov.StaticGridWriteUnavailability(coterie.DefineGrid(9), 3.0/4.0, true)
	if slow.WriteUnavailFrac >= static {
		t.Errorf("periodic dynamic (%.5g) not better than static (%.5g)", slow.WriteUnavailFrac, static)
	}
}

func TestMajorityRuleSimulation(t *testing.T) {
	res, err := Run(Config{N: 7, Lambda: 1, Mu: 3, Horizon: 50_000, Seed: 9, Model: ModelProtocol, Rule: coterie.Majority{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochChanges == 0 {
		t.Error("no epoch changes in a long run")
	}
	if res.WriteUnavailFrac <= 0 || res.WriteUnavailFrac >= 0.5 {
		t.Errorf("implausible unavailability %.5g", res.WriteUnavailFrac)
	}
}

func TestResultBookkeeping(t *testing.T) {
	res, err := Run(Config{N: 6, Lambda: 1, Mu: 3, Horizon: 10_000, Seed: 1, Model: ModelProtocol})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < 10_000*0.999 {
		t.Errorf("Time = %g", res.Time)
	}
	if res.Events == 0 || res.EpochChanges == 0 {
		t.Errorf("no activity: %+v", res)
	}
	if res.MinEpochSize > res.FinalEpochSize || res.MinEpochSize < 1 {
		t.Errorf("epoch size bookkeeping: %+v", res)
	}
	if res.WriteUnavailable > res.Time || res.ReadUnavailable > res.Time {
		t.Errorf("unavailable time exceeds total: %+v", res)
	}
}

func TestHighRepairRateNearPerfect(t *testing.T) {
	res, err := Run(Config{N: 9, Lambda: 1, Mu: 1000, Horizon: 20_000, Seed: 4, Model: ModelProtocol})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteUnavailFrac > 1e-3 {
		t.Errorf("unavailability %.5g with mu/lambda=1000", res.WriteUnavailFrac)
	}
}
