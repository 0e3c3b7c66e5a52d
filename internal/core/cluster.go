package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Cluster wires a complete replicated system for one data item: a simulated
// network, one replica node per member, and a coordinator per node. It is
// the harness the examples, integration tests and benchmarks build on.
type Cluster struct {
	Net     *transport.Network
	Members nodeset.Set
	opts    Options
	item    string

	mu           sync.Mutex
	nodes        map[nodeset.ID]*replica.Node
	coordinators map[nodeset.ID]*Coordinator

	checkerStop chan struct{}
	checkerDone chan struct{}
}

// NewCluster creates n nodes (IDs 0..n-1) each replicating one data item
// with the given initial value.
func NewCluster(n int, item string, initial []byte, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one node, got %d", n)
	}
	opts = opts.withDefaults()
	tOpts := opts.Transport
	if opts.Obs != nil {
		// The cluster's network records into the same registry as the
		// coordinators and replicas, so one snapshot covers every layer.
		tOpts = append(append([]transport.Option{}, tOpts...), transport.WithObs(opts.Obs))
	}
	c := &Cluster{
		Net:          transport.NewNetwork(tOpts...),
		Members:      nodeset.Range(0, nodeset.ID(n)),
		opts:         opts,
		item:         item,
		nodes:        make(map[nodeset.ID]*replica.Node),
		coordinators: make(map[nodeset.ID]*Coordinator),
	}
	if c.opts.Strategy.Weighted() && c.opts.Engine == nil {
		// One tracker and one strategy engine for the whole cluster: the
		// distribution is cluster-wide and the background solves must not
		// scale with coordinator count.
		if c.opts.Load == nil {
			c.opts.Load = NewLoadTracker(c.Net, c.Members, c.opts.Obs)
		}
		c.opts.Engine = NewStrategyEngine(c.Members, c.opts.Load, c.opts)
	}
	for _, id := range c.Members.IDs() {
		node := replica.NewNode(id, c.Net, c.opts.Replica)
		it, err := node.AddItem(item, c.Members, initial)
		if err != nil {
			return nil, err
		}
		c.nodes[id] = node
		c.coordinators[id] = NewCoordinator(it, c.Net, c.Members, c.opts)
	}
	return c, nil
}

// ItemName returns the replicated data item's name.
func (c *Cluster) ItemName() string { return c.item }

// Coordinator returns the coordinator co-located with node id.
func (c *Cluster) Coordinator(id nodeset.ID) *Coordinator {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coordinators[id]
}

// Node returns the replica node with the given ID.
func (c *Cluster) Node(id nodeset.ID) *replica.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Replica returns node id's replica of the item.
func (c *Cluster) Replica(id nodeset.ID) *replica.Item {
	n := c.Node(id)
	if n == nil {
		return nil
	}
	return n.Item(c.item)
}

// Crash fails a node (fail-stop). Its replica state survives for Restart,
// modeling a node with stable storage.
func (c *Cluster) Crash(id nodeset.ID) { c.Net.Crash(id) }

// Restart brings a crashed node back.
func (c *Cluster) Restart(id nodeset.ID) { c.Net.Restart(id) }

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

// UpMembers returns the currently reachable members.
func (c *Cluster) UpMembers() nodeset.Set { return c.Net.UpNodes().Intersect(c.Members) }

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

// StartEpochChecker launches the periodic epoch-checking pulse the paper
// prescribes ("we want a steady (albeit infrequent) pulse of epoch checking
// operations to avoid the accumulation of failures", Section 2). Each tick
// the highest reachable node initiates one check. Stop with StopEpochChecker
// or Close.
func (c *Cluster) StartEpochChecker(interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.checkerStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.checkerStop, c.checkerDone = stop, done
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
				_, _ = c.CheckEpoch(ctx) // failures are retried next tick
				cancel()
			}
		}
	}()
}

// StopEpochChecker halts the periodic pulse.
func (c *Cluster) StopEpochChecker() {
	c.mu.Lock()
	stop, done := c.checkerStop, c.checkerDone
	c.checkerStop, c.checkerDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Close stops background work on every node.
func (c *Cluster) Close() {
	c.StopEpochChecker()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.Close()
	}
}
