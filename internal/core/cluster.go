package core

import (
	"context"
	"fmt"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

// Cluster is a complete replicated system for one data item: a Group of
// one item, seen through that item. It is the harness the examples,
// integration tests and benchmarks build on; Net, Members, Node, Crash,
// Restart, UpMembers and Close are the Group's.
type Cluster struct {
	*Group
	item   string
	coords []*Coordinator // the item's coordinators, by node ID
}

// NewCluster creates n nodes (IDs 0..n-1) each replicating one data item
// with the given initial value.
func NewCluster(n int, item string, initial []byte, opts Options) (*Cluster, error) {
	g, err := NewGroup(n, []string{item}, map[string][]byte{item: initial}, opts)
	if err != nil {
		return nil, err
	}
	return &Cluster{Group: g, item: item, coords: g.coords[item]}, nil
}

// ItemName returns the replicated data item's name.
func (c *Cluster) ItemName() string { return c.item }

// Coordinator returns the coordinator co-located with node id.
func (c *Cluster) Coordinator(id nodeset.ID) *Coordinator { return at(c.coords, id) }

// Replica returns node id's replica of the item.
func (c *Cluster) Replica(id nodeset.ID) *replica.Item { return c.Group.Replica(c.item, id) }

// CrashWithAmnesia fails a node and wipes its replica's stable state: on
// Restart it rejoins as a *recovering* replica that answers requests but
// is excluded from every quorum until an epoch change readmits it and
// propagation rebuilds its value (see replica's amnesia support). This
// models losing the stable storage the paper's fail-stop model assumes.
func (c *Cluster) CrashWithAmnesia(id nodeset.ID) {
	c.Net.Crash(id)
	if it := c.Replica(id); it != nil {
		it.Amnesia()
	}
}

// CheckEpochFrom runs one epoch check coordinated by the given node.
func (c *Cluster) CheckEpochFrom(ctx context.Context, id nodeset.ID) (CheckResult, error) {
	co := c.Coordinator(id)
	if co == nil {
		return CheckResult{}, fmt.Errorf("core: unknown node %v", id)
	}
	return co.CheckEpoch(ctx)
}

// CheckEpoch runs one epoch check from an automatically chosen up node —
// the highest-named reachable member, matching the bully election's choice
// without the message exchange. Production deployments elect the initiator
// (internal/election); simulations and tests can shortcut here.
func (c *Cluster) CheckEpoch(ctx context.Context) (CheckResult, error) {
	up := c.UpMembers()
	id, ok := up.Max()
	if !ok {
		return CheckResult{}, fmt.Errorf("%w: no node up", ErrUnavailable)
	}
	return c.CheckEpochFrom(ctx, id)
}

// StartEpochChecker launches the periodic epoch-checking pulse (paper,
// Section 2): each tick the highest reachable node initiates one check.
// Stop with StopEpochChecker or Close.
func (c *Cluster) StartEpochChecker(interval time.Duration) {
	c.pulse.start(interval, func(ctx context.Context) { _, _ = c.CheckEpoch(ctx) })
}

// StopEpochChecker halts the periodic pulse.
func (c *Cluster) StopEpochChecker() { c.pulse.halt() }
