package sim

import (
	"testing"

	"coterie/internal/coterie"
	"coterie/internal/obs"
)

// TestStrategyCandidateTracking: a weighted-strategy run must account
// candidate availability alongside rule availability, and the candidate
// numbers can only be worse (the candidate list is a subset of the
// rule's quorums).
func TestStrategyCandidateTracking(t *testing.T) {
	reg := obs.New()
	res, err := Run(Config{
		N: 9, Lambda: 1, Mu: 19,
		Model: ModelProtocol, Rule: coterie.Grid{},
		Strategy: "optimized",
		Horizon:  20000, Seed: 7, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateWriteUnavailFrac < res.WriteUnavailFrac-1e-12 {
		t.Fatalf("candidate write unavailability %g below rule %g", res.CandidateWriteUnavailFrac, res.WriteUnavailFrac)
	}
	if res.CandidateReadUnavailFrac < res.ReadUnavailFrac-1e-12 {
		t.Fatalf("candidate read unavailability %g below rule %g", res.CandidateReadUnavailFrac, res.ReadUnavailFrac)
	}
	if res.CandidateWriteUnavailFrac > 0.5 {
		t.Fatalf("candidate write unavailability %g implausibly high", res.CandidateWriteUnavailFrac)
	}
	if res.Fallbacks > 0 && reg.Counter("sim_strategy_fallbacks_total").Load() != uint64(res.Fallbacks) {
		t.Fatalf("fallback counter %d != result %d",
			reg.Counter("sim_strategy_fallbacks_total").Load(), res.Fallbacks)
	}
}

// TestStrategyTrackingOffByDefault: without a weighted strategy the
// candidate accounting stays zero, and hint is accepted as an inert
// strategy name.
func TestStrategyTrackingOffByDefault(t *testing.T) {
	for _, s := range []string{"", "hint"} {
		res, err := Run(Config{
			N: 9, Lambda: 1, Mu: 19,
			Model: ModelProtocol, Rule: coterie.Grid{},
			Strategy: s,
			Horizon:  1000, Seed: 7,
		})
		if err != nil {
			t.Fatalf("strategy %q: %v", s, err)
		}
		if res.CandidateWriteUnavailable != 0 || res.CandidateReadUnavailable != 0 || res.Fallbacks != 0 {
			t.Fatalf("strategy %q tracked candidates: %+v", s, res)
		}
	}
}

// TestStrategyValidation: unknown strategies and non-protocol models are
// rejected.
func TestStrategyValidation(t *testing.T) {
	for _, s := range []string{"bogus", "load", "read-dominant"} {
		if _, err := Run(Config{N: 9, Lambda: 1, Mu: 19, Model: ModelProtocol, Strategy: s, Horizon: 10}); err == nil {
			t.Errorf("unknown strategy %q accepted", s)
		}
	}
	if _, err := Run(Config{N: 9, Lambda: 1, Mu: 19, Model: ModelPaper, Strategy: "optimized", Horizon: 10}); err == nil {
		t.Error("weighted strategy accepted under ModelPaper")
	}
}
