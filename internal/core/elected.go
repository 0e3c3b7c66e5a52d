package core

import (
	"context"
	"fmt"
	"time"

	"coterie/internal/election"
	"coterie/internal/nodeset"
	"coterie/internal/transport"
)

// Elected epoch checking: the paper picks the epoch-check initiator by
// electing a site (Section 4.3, citing Garcia-Molina's bully algorithm).
// ElectedCluster is a Cluster with an elector beside every replica node on
// the same endpoint (via a message mux), and it drives the periodic
// epoch-check pulse from whichever node currently wins the election.
type ElectedCluster struct {
	*Cluster
	electors []*election.Elector // by node ID
}

// NewElectedCluster builds a cluster whose nodes also run bully electors.
func NewElectedCluster(n int, item string, initial []byte, opts Options) (*ElectedCluster, error) {
	c, err := NewCluster(n, item, initial, opts)
	if err != nil {
		return nil, err
	}
	ec := &ElectedCluster{Cluster: c}
	for _, id := range c.Members.IDs() {
		// Re-register the node's endpoint as a mux: election messages go
		// to the elector, everything else to the node as before.
		mux := transport.NewMux()
		mux.HandleDefault(c.Node(id).Handler())
		ec.electors = append(ec.electors, election.New(id, c.Members, c.Net, mux, c.opts.CallTimeout))
		c.Net.Register(id, mux.Handler())
	}
	return ec, nil
}

// Elector returns node id's elector.
func (ec *ElectedCluster) Elector(id nodeset.ID) *election.Elector { return at(ec.electors, id) }

// ElectInitiator runs a bully election from the given node and returns the
// elected epoch-check initiator.
func (ec *ElectedCluster) ElectInitiator(ctx context.Context, from nodeset.ID) (nodeset.ID, error) {
	e := ec.Elector(from)
	if e == nil {
		return 0, fmt.Errorf("core: unknown node %v", from)
	}
	return e.Run(ctx)
}

// CheckEpochElected elects an initiator (starting the election from the
// lowest reachable node, i.e. an arbitrary "noticer") and runs one epoch
// check from it.
func (ec *ElectedCluster) CheckEpochElected(ctx context.Context) (CheckResult, error) {
	up := ec.UpMembers()
	noticer, ok := up.Min()
	if !ok {
		return CheckResult{}, fmt.Errorf("%w: no node up", ErrUnavailable)
	}
	leader, err := ec.ElectInitiator(ctx, noticer)
	if err != nil {
		return CheckResult{}, fmt.Errorf("core: election failed: %w", err)
	}
	return ec.CheckEpochFrom(ctx, leader)
}

// StartElectedEpochChecker runs the periodic pulse, electing the initiator
// on every tick — "a new election would be started by any node noticing
// that epoch checking has not run for a while" (paper, Section 4.3). It
// is the cluster's one pulse: stop it with StopEpochChecker or Close.
func (ec *ElectedCluster) StartElectedEpochChecker(interval time.Duration) {
	ec.pulse.start(interval, func(ctx context.Context) { _, _ = ec.CheckEpochElected(ctx) })
}
