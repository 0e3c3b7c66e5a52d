// Package sim is a discrete-event simulator of the failure/repair process
// driving a replicated data item under the dynamic coterie protocol.
//
// With an epoch check after every event (CheckEvery 0) both transition
// models have an exact chain in internal/markov, and the simulated
// long-run unavailability must converge to its stationary value:
//
//   - ModelPaper follows the paper's simplified recovery rule ("a 3-node
//     epoch needs all three members") and reads by the grid's read
//     quorums: markov.PaperReadModel, whose write side is Figure 3's
//     markov.DynamicGridModel;
//   - ModelProtocol evaluates the coterie rule exactly — e.g. the N=5 grid
//     has a height-1 column whose loss blocks the epoch change, and the
//     partial-column optimization lets some 3-node and even 2-node epochs
//     survive failures: markov.RuleModel.
//
// Nodes fail and repair as independent Poisson processes (rates Lambda and
// Mu). With CheckEvery > 0 epoch checks run on a fixed period instead,
// which quantifies how the availability gain decays when checks lag behind
// failures; for that the simulator is the only model.
package sim

import (
	"fmt"
	"math/rand"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
)

// Model selects the epoch-transition rule.
type Model int

const (
	// ModelPaper follows the Figure 3 analysis: any epoch of ≥ 4 nodes
	// adapts to a single failure; an epoch of exactly 3 blocks on any
	// failure and recovers only when all three members are up again. Reads
	// need a read quorum of coterie.Grid{} over the current epoch, so a
	// blocked 3-member epoch may still read.
	ModelPaper Model = iota
	// ModelProtocol evaluates the configured coterie rule exactly: the
	// epoch moves to the up-set whenever the up-set includes a write
	// quorum over the current epoch.
	ModelProtocol
)

// Config parameterizes one simulation run.
type Config struct {
	N      int
	Lambda float64 // per-node failure rate
	Mu     float64 // per-node repair rate
	Model  Model
	// Rule is the coterie rule for ModelProtocol (default coterie.Grid{}).
	// ModelPaper ignores it: its epochs are grids.
	Rule coterie.Rule
	// Horizon is the simulated time span.
	Horizon float64
	// CheckEvery > 0 runs epoch checks periodically instead of after every
	// failure/repair event, modeling a realistic check pulse.
	CheckEvery float64
	// Seed drives the run's randomness.
	Seed int64
}

// Result aggregates a run.
type Result struct {
	Time             float64 // simulated time
	WriteUnavailable float64 // time without a write quorum over the epoch
	ReadUnavailable  float64 // time without a read quorum over the epoch
	EpochChanges     int     // successful epoch adaptations
	Blocks           int     // transitions into write-unavailability
	Events           int     // failure/repair events processed
	FinalEpochSize   int
	MinEpochSize     int
	WriteUnavailFrac float64 // WriteUnavailable / Time
	ReadUnavailFrac  float64 // ReadUnavailable / Time
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	if cfg.N < 2 {
		return Result{}, fmt.Errorf("sim: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.Lambda <= 0 || cfg.Mu <= 0 {
		return Result{}, fmt.Errorf("sim: rates must be positive (lambda=%g, mu=%g)", cfg.Lambda, cfg.Mu)
	}
	if cfg.Horizon <= 0 {
		return Result{}, fmt.Errorf("sim: horizon must be positive, got %g", cfg.Horizon)
	}
	if cfg.Model == ModelPaper && cfg.N < 4 {
		return Result{}, fmt.Errorf("sim: the paper model needs N >= 4, got %d", cfg.N)
	}
	rule := cfg.Rule
	if rule == nil || cfg.Model == ModelPaper {
		rule = coterie.Grid{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	all := nodeset.Range(0, nodeset.ID(cfg.N))
	up := all.Clone()
	epoch := all.Clone()

	res := Result{MinEpochSize: cfg.N, FinalEpochSize: cfg.N}
	now := 0.0
	nextCheck := cfg.CheckEvery

	// The rule is compiled once per epoch: quorum checks between epoch
	// changes are pure word-level mask operations with no allocations.
	// Trajectories revisit a small set of member sets (mostly the full set
	// minus a few nodes), so for N ≤ 64 compiled layouts are cached keyed
	// by the epoch's single membership word; an epoch change then costs a
	// map probe instead of a recompilation. ModelPaper consults the layout
	// for reads only.
	var layoutCache map[uint64]*coterie.Layout
	if cfg.N <= 64 {
		layoutCache = make(map[uint64]*coterie.Layout)
	}
	compileLayout := func(epoch nodeset.Set) *coterie.Layout {
		if layoutCache == nil {
			return coterie.Compile(rule, epoch)
		}
		key := epoch.Word(0)
		l, ok := layoutCache[key]
		if !ok {
			l = coterie.Compile(rule, epoch)
			layoutCache[key] = l
		}
		return l
	}
	layout := compileLayout(epoch)
	writeAvailable := func() bool {
		if cfg.Model == ModelPaper {
			return up.ContainsAll(epoch) || epochAdaptablePaper(epoch, up)
		}
		return layout.IsWriteQuorum(up)
	}
	readAvailable := func() bool { return layout.IsReadQuorum(up) }
	check := func() {
		if up.Equal(epoch) {
			return
		}
		ok := false
		if cfg.Model == ModelPaper {
			ok = epochAdaptablePaper(epoch, up)
		} else {
			ok = layout.IsWriteQuorum(up)
		}
		if ok {
			epoch = up.Clone()
			layout = compileLayout(epoch)
			res.EpochChanges++
			if l := epoch.Len(); l < res.MinEpochSize {
				res.MinEpochSize = l
			}
		}
	}

	wasWriteAvail := true
	for now < cfg.Horizon {
		nUp := up.Len()
		nDown := cfg.N - nUp
		rate := float64(nUp)*cfg.Lambda + float64(nDown)*cfg.Mu
		dt := rng.ExpFloat64() / rate
		eventTime := now + dt

		// Interleave periodic checks before the next failure/repair event.
		for cfg.CheckEvery > 0 && nextCheck <= eventTime && nextCheck <= cfg.Horizon {
			// State between events is constant, so checks between now and
			// eventTime all see the same state; one suffices.
			check()
			nextCheck += cfg.CheckEvery
		}
		if eventTime > cfg.Horizon {
			eventTime = cfg.Horizon
		}
		// Accrue availability over [now, eventTime).
		span := eventTime - now
		if !writeAvailable() {
			res.WriteUnavailable += span
		}
		if !readAvailable() {
			res.ReadUnavailable += span
		}
		now = eventTime
		if now >= cfg.Horizon {
			break
		}

		// Apply the failure or repair.
		x := rng.Float64() * rate
		if x < float64(nUp)*cfg.Lambda {
			k := int(x / cfg.Lambda)
			if k >= nUp { // guard against floating-point edge
				k = nUp - 1
			}
			id, _ := up.Nth(k + 1)
			up.Remove(id)
		} else {
			k := int((x - float64(nUp)*cfg.Lambda) / cfg.Mu)
			if k >= nDown {
				k = nDown - 1
			}
			up.Add(nthDown(cfg.N, up, k+1))
		}
		res.Events++
		if cfg.CheckEvery <= 0 {
			check()
		}
		nowAvail := writeAvailable()
		if wasWriteAvail && !nowAvail {
			res.Blocks++
		}
		wasWriteAvail = nowAvail
	}

	res.Time = now
	res.FinalEpochSize = epoch.Len()
	if res.Time > 0 {
		res.WriteUnavailFrac = res.WriteUnavailable / res.Time
		res.ReadUnavailFrac = res.ReadUnavailable / res.Time
	}
	return res, nil
}

// epochAdaptablePaper is the Figure 3 transition rule: the up-set can form
// a new epoch iff the current epoch has more than 3 members and at most one
// of them is down, or all current members are up (pure growth; also the
// recovery condition for a blocked 3-node epoch).
func epochAdaptablePaper(epoch, up nodeset.Set) bool {
	members := epoch.Len()
	downMembers := members - epoch.IntersectionLen(up)
	if downMembers == 0 {
		return true
	}
	return members >= 4 && downMembers == 1
}

// nthDown returns the k-th (1-based, in increasing ID order) node of
// {0..n-1} that is not in up, without materializing the complement set.
func nthDown(n int, up nodeset.Set, k int) nodeset.ID {
	for id := nodeset.ID(0); id < nodeset.ID(n); id++ {
		if !up.Contains(id) {
			k--
			if k == 0 {
				return id
			}
		}
	}
	panic("sim: down-node index out of range")
}
