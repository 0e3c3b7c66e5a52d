// Package coterie is a Go implementation of dynamic structured coterie
// protocols for replicated objects, reproducing Rabinovich & Lazowska,
// "Improving Fault Tolerance and Supporting Partial Writes in Structured
// Coterie Protocols for Replicated Objects" (SIGMOD 1992).
//
// The library provides:
//
//   - the dynamic replication protocol itself (epoch-based quorum
//     adjustment, partial writes with stale marking, asynchronous update
//     propagation) over pluggable coterie rules — grid, majority voting,
//     hierarchical quorum consensus, read-one/write-all;
//   - a simulated fail-stop network with crashes and partitions to run
//     clusters in-process;
//   - the static grid protocol baseline (Cheung, Ammar & Ahamad);
//   - the paper's availability analysis: exact Markov-chain solutions for
//     the dynamic grid (Table 1), closed forms for the static protocols,
//     and a discrete-event simulator for validation and ablations.
//
// # Quick start
//
//	cluster, err := coterie.NewCluster(9, "mydata", nil, coterie.Options{})
//	if err != nil { ... }
//	defer cluster.Close()
//
//	co := cluster.Coordinator(0)
//	version, err := co.Write(ctx, coterie.Update{Offset: 0, Data: []byte("hello")})
//	value, version, err := cluster.Coordinator(5).Read(ctx)
//
// Crash nodes with cluster.Crash, let the epoch adapt with
// cluster.CheckEpoch (or StartEpochChecker for a periodic pulse), and the
// data item stays available as long as a write quorum of the current epoch
// survives — down to a handful of nodes, where the static protocols would
// have blocked long before.
package coterie

import (
	"math/big"
	"math/rand"
	"time"

	"coterie/internal/core"
	ic "coterie/internal/coterie"
	"coterie/internal/markov"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/sim"
	"coterie/internal/staticgrid"
	"coterie/internal/transport"
	"coterie/internal/wire"
)

// NodeID names a node. Node names are linearly ordered; the protocols use
// the order to impose logical structure on epoch lists.
type NodeID = nodeset.ID

// Set is an ordered set of node IDs.
type Set = nodeset.Set

// NewSet builds a Set from IDs.
func NewSet(ids ...NodeID) Set { return nodeset.New(ids...) }

// Update is a partial write: Data replaces the bytes at Offset, extending
// the item if needed.
type Update = replica.Update

// Rule is a coterie rule: it decides and constructs read/write quorums over
// an arbitrary ordered node set.
type Rule = ic.Rule

// GridRule returns the grid coterie rule (paper, Section 5) with the
// partial-column optimization.
func GridRule() Rule { return ic.Grid{} }

// StrictGridRule returns the grid rule without the partial-column
// optimization — the rule assumed by the paper's availability analysis.
func StrictGridRule() Rule { return ic.Grid{Strict: true} }

// MajorityRule returns one-vote-per-node majority voting (Gifford).
func MajorityRule() Rule { return ic.Majority{} }

// GridRuleWithRatio returns the grid rule with the paper's aspect
// parameter k ≈ rows/columns: larger k gives cheaper reads and lower write
// availability (Section 5). Every node of a cluster must use the same k.
func GridRuleWithRatio(k float64) Rule { return ic.Grid{Ratio: k} }

// HierarchicalRule returns Kumar's hierarchical quorum consensus with the
// default ternary branching.
func HierarchicalRule() Rule { return ic.Hierarchical{} }

// WheelRule returns the wheel coterie: constant-size {hub, spoke} quorums
// with a full-rim fallback — minimal quorums, maximal hub load.
func WheelRule() Rule { return ic.Wheel{} }

// ROWARule returns read-one/write-all.
func ROWARule() Rule { return ic.ROWA{} }

// Options configures clusters and coordinators. See core.Options for field
// documentation; the zero value selects the grid rule and sensible
// timeouts.
type Options = core.Options

// ReplicaConfig tunes per-replica behavior (lock leases, update-log size,
// propagation cadence).
type ReplicaConfig = replica.Config

// Cluster is a complete in-process replicated system for one data item.
type Cluster = core.Cluster

// Coordinator executes reads, writes and epoch checks from one node.
type Coordinator = core.Coordinator

// CheckResult reports an epoch-checking outcome.
type CheckResult = core.CheckResult

// ErrUnavailable is returned when an operation cannot reach a quorum with
// a current replica.
var ErrUnavailable = core.ErrUnavailable

// ErrConflict is returned when an operation lost lock races and should be
// retried.
var ErrConflict = core.ErrConflict

// NewCluster creates an n-node cluster (IDs 0..n-1) replicating one data
// item with the given initial value. Here and in the constructors below the
// replicas keep initial by reference and only read it: the caller must not
// modify it afterwards.
func NewCluster(n int, item string, initial []byte, opts Options) (*Cluster, error) {
	return core.NewCluster(n, item, initial, opts)
}

// Group is a multi-item cluster with amortized (grouped) epoch checking —
// the paper's Section 2 optimization for items replicated on the same
// nodes.
type Group = core.Group

// NewGroup creates n nodes each replicating every named item.
func NewGroup(n int, items []string, initial map[string][]byte, opts Options) (*Group, error) {
	return core.NewGroup(n, items, initial, opts)
}

// ElectedCluster is a Cluster whose epoch-check initiator is chosen by
// bully election (paper, Section 4.3).
type ElectedCluster = core.ElectedCluster

// NewElectedCluster creates a cluster with electors on every node.
func NewElectedCluster(n int, item string, initial []byte, opts Options) (*ElectedCluster, error) {
	return core.NewElectedCluster(n, item, initial, opts)
}

// --- Static baseline (Cheung, Ammar & Ahamad) ---

// StaticCluster is a cluster running the conventional static grid protocol
// (total writes, no epochs) — the baseline the paper's Table 1 compares
// against.
type StaticCluster = staticgrid.Cluster

// StaticOptions configures the static baseline.
type StaticOptions = staticgrid.Options

// ErrStaticUnavailable is the static protocol's unavailability error.
var ErrStaticUnavailable = staticgrid.ErrUnavailable

// NewStaticCluster creates an n-node cluster under the static grid
// protocol.
func NewStaticCluster(n int, item string, initial []byte, opts StaticOptions, rcfg ReplicaConfig) (*StaticCluster, error) {
	return staticgrid.NewCluster(n, item, initial, opts, rcfg)
}

// --- Availability analysis (paper, Section 6) ---

// Table1Row is one row of the paper's Table 1.
type Table1Row = markov.Table1Row

// Table1 recomputes the paper's Table 1 (static vs dynamic grid write
// unavailability at p = 0.95).
func Table1() ([]Table1Row, error) {
	return markov.Table1(markov.PaperTable1Params())
}

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []Table1Row) string { return markov.FormatTable1(rows) }

// DynamicGridUnavailability solves the Figure 3 Markov chain for n
// replicas with failure rate lambda and repair rate mu, in high-precision
// arithmetic.
func DynamicGridUnavailability(n int, lambda, mu float64) (*big.Float, error) {
	return markov.DynamicGridModel{N: n, Lambda: lambda, Mu: mu}.Unavailability(0)
}

// StaticGridUnavailability returns the static grid protocol's write
// unavailability for its best exact factorization at per-node availability
// p.
func StaticGridUnavailability(n int, p float64) float64 {
	_, u := markov.BestStaticGrid(n, p, true)
	return u
}

// MeanOutageDuration returns the expected length of a dynamic-grid write
// outage (time from a 3-node epoch losing its first member until an epoch
// re-forms), in the same time unit as 1/lambda.
func MeanOutageDuration(n int, lambda, mu float64) (float64, error) {
	return markov.DynamicGridModel{N: n, Lambda: lambda, Mu: mu}.MeanOutageDuration()
}

// --- Simulation ---

// SimConfig parameterizes an availability simulation; see sim.Config.
type SimConfig = sim.Config

// SimResult aggregates a simulation run; see sim.Result.
type SimResult = sim.Result

// Simulate runs the discrete-event availability simulator.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// DefaultCallTimeout is the default per-round RPC timeout used by
// coordinators when Options.CallTimeout is zero.
const DefaultCallTimeout = 2 * time.Second

// --- Wire transport ---

// TransportOption configures a cluster's simulated network.
type TransportOption = transport.Option

// WithWireCodec forces every protocol message through the binary wire
// codec, proving the deployment path over a byte-oriented network. Pass it
// in Options.Transport.
func WithWireCodec() TransportOption {
	return transport.WithCodec(
		func(m transport.Message) ([]byte, error) { return wire.Marshal(m) },
		func(b []byte) (transport.Message, error) { return wire.Unmarshal(b) },
	)
}

// WithLatency injects per-message delays sampled by fn.
func WithLatency(fn func(r *rand.Rand) time.Duration) TransportOption {
	return transport.WithLatency(fn)
}

// MarshalMessage encodes a protocol message with the wire codec.
func MarshalMessage(msg any) ([]byte, error) { return wire.Marshal(msg) }

// UnmarshalMessage decodes a wire-encoded protocol message.
func UnmarshalMessage(b []byte) (any, error) { return wire.Unmarshal(b) }
