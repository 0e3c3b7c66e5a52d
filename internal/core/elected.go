package core

import (
	"context"
	"fmt"
	"time"

	"coterie/internal/election"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Elected epoch checking: the paper picks the epoch-check initiator by
// electing a site (Section 4.3, citing Garcia-Molina's bully algorithm).
// ElectedCluster wires an elector next to every replica node on the same
// endpoints (via a message mux) and drives the periodic epoch-check pulse
// from whichever node currently wins the election.
type ElectedCluster struct {
	*Cluster
	electors map[nodeset.ID]*election.Elector

	stopPulse chan struct{}
	donePulse chan struct{}
}

// NewElectedCluster builds a cluster whose nodes also run bully electors.
func NewElectedCluster(n int, item string, initial []byte, opts Options) (*ElectedCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one node, got %d", n)
	}
	opts = opts.withDefaults()
	c := &Cluster{
		Net:          transport.NewNetwork(opts.withDefaults().Transport...),
		Members:      nodeset.Range(0, nodeset.ID(n)),
		opts:         opts,
		item:         item,
		nodes:        make(map[nodeset.ID]*replica.Node),
		coordinators: make(map[nodeset.ID]*Coordinator),
	}
	ec := &ElectedCluster{Cluster: c, electors: make(map[nodeset.ID]*election.Elector)}
	for _, id := range c.Members.IDs() {
		// The node registers itself on the network; re-register a mux that
		// routes replica envelopes to it and election messages to the
		// elector.
		node := replica.NewNode(id, c.Net, opts.Replica)
		it, err := node.AddItem(item, c.Members, initial)
		if err != nil {
			return nil, err
		}
		mux := transport.NewMux()
		mux.HandleType(replica.Envelope{}, node.Handler())
		ec.electors[id] = election.New(id, c.Members, c.Net, mux, opts.CallTimeout)
		c.Net.Register(id, mux.Handler())

		c.nodes[id] = node
		c.coordinators[id] = NewCoordinator(it, c.Net, c.Members, opts)
	}
	return ec, nil
}

// Elector returns node id's elector.
func (ec *ElectedCluster) Elector(id nodeset.ID) *election.Elector { return ec.electors[id] }

// ElectInitiator runs a bully election from the given node and returns the
// elected epoch-check initiator.
func (ec *ElectedCluster) ElectInitiator(ctx context.Context, from nodeset.ID) (nodeset.ID, error) {
	e := ec.electors[from]
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
// that epoch checking has not run for a while" (paper, Section 4.3).
func (ec *ElectedCluster) StartElectedEpochChecker(interval time.Duration) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.stopPulse != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	ec.stopPulse, ec.donePulse = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				_, _ = ec.CheckEpochElected(ctx)
				cancel()
			}
		}
	}()
}

// StopElectedEpochChecker halts the pulse.
func (ec *ElectedCluster) StopElectedEpochChecker() {
	ec.mu.Lock()
	stop, done := ec.stopPulse, ec.donePulse
	ec.stopPulse, ec.donePulse = nil, nil
	ec.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Close stops the pulse and the underlying cluster.
func (ec *ElectedCluster) Close() {
	ec.StopElectedEpochChecker()
	ec.Cluster.Close()
}
