// Package core implements the paper's primary contribution: the general
// dynamic structured coterie protocol of Section 4 — write and read
// operations that collect quorums over the *current epoch*, mark
// unreachable or outdated replicas stale instead of updating them
// synchronously, and an asynchronous epoch-checking operation that adjusts
// the epoch to reflect detected failures and repairs.
//
// The three pillars (paper, Sections 1 and 4):
//
//   - Coterie rule over an ordered set. Quorums are computed from the epoch
//     list by a deterministic rule (coterie.Rule), not from a static network
//     layout, so the logical structure follows the epoch.
//   - Epochs. A new epoch must contain a write quorum of its predecessor and
//     is installed atomically on all of its members, which makes the current
//     epoch unique (Lemma 1) and lets any operation that reaches one member
//     reconstruct the structure.
//   - Partial writes via stale marking. A write updates the current replicas
//     it reached and marks the others stale with a desired version number;
//     good replicas propagate the missing updates asynchronously
//     (replica.Item's propagation worker), so no synchronous reconciliation
//     is ever needed and different coordinators can use different quorums.
package core

import (
	"errors"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// ErrUnavailable is returned when an operation cannot assemble the quorum
// and current replica it needs — the paper's "failure" result. The caller
// may retry after failures heal or after the next epoch change.
var ErrUnavailable = errors.New("core: data item unavailable")

// ErrConflict is returned when an operation repeatedly lost lock races with
// concurrent operations. The data may well be available; the caller should
// back off and retry.
var ErrConflict = errors.New("core: operation aborted after lock conflicts")

// QuorumStrategy selects how a coordinator chooses among a layout's
// candidate quorums.
type QuorumStrategy int

const (
	// StrategyHint rotates across candidate quorums pseudo-randomly by
	// operation ID — the paper's Section 5 load sharing ("different nodes
	// may use different quorums"), blind to observed load.
	StrategyHint QuorumStrategy = iota
	// StrategyOptimized samples quorums from a solved weighted distribution
	// over the layout's candidate quorums — the capacity-maximizing LP of
	// Whittaker et al., solved to a certificate, with WOC-style
	// heterogeneous node capacities: measured call times (Options.Load),
	// declared ones (Options.Capacity) until a node has been timed. The
	// distribution is recomputed on a low-frequency tick
	// (Options.OptimizeInterval) and swapped atomically; the per-operation
	// pick is one splitmix64 draw and an alias-table lookup,
	// allocation-free. A pick the distribution cannot serve (an epoch not
	// solved yet, a degenerate one) is StrategyHint's.
	StrategyOptimized
)

// String returns the flag-syntax name of the strategy ("hint",
// "optimized").
func (s QuorumStrategy) String() string {
	switch s {
	case StrategyHint:
		return "hint"
	case StrategyOptimized:
		return "optimized"
	}
	return "unknown"
}

// ParseStrategy parses a -strategy flag value. It is the inverse of
// String and the single place flag vocab is defined, shared by coteried
// and loadgen.
func ParseStrategy(s string) (QuorumStrategy, error) {
	switch s {
	case "", "hint":
		return StrategyHint, nil
	case "optimized":
		return StrategyOptimized, nil
	}
	return 0, errors.New("core: unknown strategy " + s + " (want hint or optimized)")
}

// Weighted reports whether the strategy samples a solved distribution
// (and therefore needs the optimizer engine and a load tracker).
func (s QuorumStrategy) Weighted() bool {
	return s == StrategyOptimized
}

// Options configures coordinators.
type Options struct {
	// Rule is the coterie rule imposed on epoch lists. Default: the grid
	// protocol with the partial-column optimization (coterie.Grid{}).
	Rule coterie.Rule
	// CallTimeout bounds each RPC round (phase-1 lock collection, prepare,
	// commit). Default 2s.
	CallTimeout time.Duration
	// SafetyThreshold enables the Section 4.1 extension when > 0: a write
	// finding fewer than SafetyThreshold good replicas directly applies the
	// update to additional recorded-good replicas so that at least that
	// many replicas hold the new value before the write returns. The
	// extension is defined per single update, so such a coordinator does
	// not group-commit (combiner.go).
	SafetyThreshold int
	// Obs is the observability registry coordinator metrics and flight
	// traces are recorded into. It is propagated to the replica layer
	// (Replica.Obs) and, in NewGroup, to the transport. Default nil
	// (obs.Nop): every recording site is a no-op.
	Obs *obs.Registry
	// Strategy selects how quorums are picked from a layout's candidates.
	// Default StrategyHint.
	Strategy QuorumStrategy
	// Load measures the capacities StrategyOptimized solves with, one
	// tracker per network: WithSharedEngine builds the engine on it, and
	// builds it first when nil. Nothing else reads it.
	Load *LoadTracker
	// Capacity returns a node's declared relative service capacity (only
	// ratios matter; nil means homogeneous 1.0): StrategyOptimized solves
	// with it for a node whose calls have not been timed yet. Under every
	// strategy the capacities also plan write-through: a member declared
	// below pushCapacityFloor of its epoch's largest capacity is sent no
	// bystander pushes (see pushTargets).
	Capacity coterie.CapacityFunc
	// OptimizeInterval is the recompute tick of StrategyOptimized: how
	// often the quorum distribution is re-solved against measured
	// capacities and read mix. Default 200ms.
	OptimizeInterval time.Duration
	// Engine is the StrategyOptimized engine coordinators sample from, one
	// per process shared by every coordinator (WithSharedEngine builds it):
	// the solved distribution is not per-item. A coordinator given none
	// picks as StrategyHint does.
	Engine *StrategyEngine
	// Replica configures the per-node replica behavior.
	Replica replica.Config
	// Transport options are applied to the cluster's network — e.g.
	// transport.WithCodec to force every message through a wire codec, or
	// transport.WithLatency to inject delays.
	Transport []transport.Option
}

func (o Options) withDefaults() Options {
	if o.Rule == nil {
		o.Rule = coterie.Grid{}
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.OptimizeInterval == 0 {
		o.OptimizeInterval = 200 * time.Millisecond
	}
	if o.Replica.LockLease == 0 {
		// An unprepared lock hold must survive the slowest possible path
		// from its phase-1 grant to the prepare that pins it: up to one
		// full heavy-procedure lock round plus prepare delivery. A lease
		// at or below CallTimeout expires exactly when a straggler burns
		// the whole round, aborting healthy writes.
		o.Replica.LockLease = 4 * o.CallTimeout
	}
	if o.Replica.Obs == nil {
		o.Replica.Obs = o.Obs
	}
	return o
}
