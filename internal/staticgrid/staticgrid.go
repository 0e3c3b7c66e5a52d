// Package staticgrid implements the conventional (static) grid protocol of
// Cheung, Ammar and Ahamad — the paper's reference [3] and the baseline its
// Table 1 compares against.
//
// The protocol is static: quorums are always computed over the full replica
// set, there are no epochs, no stale marking and no propagation. Writes are
// *total* — the new value replaces the old one on every quorum member — so
// quorum members at different versions all converge on the written value
// (this is the discipline under which static structured coterie protocols
// realize their full performance advantage; paper, Section 1). The price is
// availability: once the up-set stops containing a quorum of the full grid,
// the item is unavailable until enough of the original nodes return, no
// matter how many other replicas are alive.
package staticgrid

import (
	"context"
	"errors"
	"fmt"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// ErrUnavailable is returned when no quorum of live replicas exists.
var ErrUnavailable = errors.New("staticgrid: data item unavailable")

// Options configures a static-grid coordinator.
type Options struct {
	// Rule is the static coterie rule; default is the strict grid (no
	// partial-column optimization), matching the published protocol.
	Rule coterie.Rule
	// CallTimeout bounds each RPC round. Default 2s.
	CallTimeout time.Duration
}

// commitRetries bounds redelivery of a commit decision to a participant
// whose acknowledgement did not arrive.
const commitRetries = 3

func (o Options) withDefaults() Options {
	if o.Rule == nil {
		o.Rule = coterie.Grid{Strict: true}
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 2 * time.Second
	}
	return o
}

// Coordinator runs static-grid reads and writes from one node. It reuses
// the replica substrate (locks, state replies, 2PC) but never consults or
// changes epochs: the quorum universe is permanently the full member set.
type Coordinator struct {
	item *replica.Item
	net  transport.Net
	all  nodeset.Set
	opts Options
	// layout is the rule compiled once over the immutable member set; the
	// static protocol never changes its quorum universe, so every check
	// runs against this single precompiled structure.
	layout *coterie.Layout
}

// NewCoordinator builds a static-grid coordinator around a local replica.
func NewCoordinator(item *replica.Item, net transport.Net, all nodeset.Set, opts Options) *Coordinator {
	opts = opts.withDefaults()
	allC := all.Clone()
	return &Coordinator{
		item:   item,
		net:    net,
		all:    allC,
		opts:   opts,
		layout: coterie.Compile(opts.Rule, allC),
	}
}

func hint(op replica.OpID) int { return int(op.Coordinator)*131 + int(op.Seq) }

type response struct {
	node  nodeset.ID
	state replica.StateReply
}

func (c *Coordinator) lockRound(ctx context.Context, op replica.OpID, targets nodeset.Set, mode replica.LockMode) []response {
	callCtx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
	defer cancel()
	out := make([]response, 0, targets.Len())
	c.net.MulticastFunc(callCtx, c.item.Self(), targets,
		replica.Envelope{Item: c.item.Name(), Msg: replica.LockRequest{Op: op, Mode: mode}},
		func(id nodeset.ID, r transport.Result) {
			if r.Err != nil {
				return
			}
			if st, ok := r.Reply.(*replica.StateReply); ok {
				out = append(out, response{node: id, state: *st})
			}
		})
	return out
}

func (c *Coordinator) ackRound(ctx context.Context, targets nodeset.Set, msg any) nodeset.Set {
	callCtx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
	defer cancel()
	var ok nodeset.Set
	c.net.MulticastFunc(callCtx, c.item.Self(), targets, replica.Envelope{Item: c.item.Name(), Msg: msg},
		func(id nodeset.ID, r transport.Result) {
			if r.Err == nil {
				if ack, isAck := r.Reply.(replica.Ack); isAck && ack.OK {
					ok.Add(id)
				}
			}
		})
	return ok
}

func (c *Coordinator) abortAll(ctx context.Context, op replica.OpID, targets nodeset.Set) {
	if !targets.Empty() {
		c.ackRound(ctx, targets, replica.Abort{Op: op})
	}
}

// Write replaces the data item's value (a total write) after locking a
// write quorum of the static grid. On success it returns the new version.
func (c *Coordinator) Write(ctx context.Context, value []byte) (uint64, error) {
	op := c.item.NextOp()
	// Optimistic round: the quorum the rule picks for this coordinator.
	quorum, ok := c.layout.WriteQuorum(c.all, hint(op))
	if !ok {
		return 0, fmt.Errorf("%w: member set %v admits no write quorum", ErrUnavailable, c.all)
	}
	responses := c.lockRound(ctx, op, quorum, replica.LockWrite)
	if version, err := c.tryCommit(ctx, op, value, responses); err == nil {
		return version, nil
	}
	// Fall back to polling everyone; a quorum may exist among other nodes.
	responses = c.lockRound(ctx, op, c.all, replica.LockWrite)
	version, err := c.tryCommit(ctx, op, value, responses)
	if err != nil {
		var ids nodeset.Set
		for _, r := range responses {
			ids.Add(r.node)
		}
		c.abortAll(ctx, op, ids)
		return 0, err
	}
	return version, nil
}

func (c *Coordinator) tryCommit(ctx context.Context, op replica.OpID, value []byte, responses []response) (uint64, error) {
	var responders nodeset.Set
	maxVersion := uint64(0)
	for _, r := range responses {
		responders.Add(r.node)
		if r.state.Version > maxVersion {
			maxVersion = r.state.Version
		}
	}
	if !c.layout.IsWriteQuorum(responders) {
		c.abortAll(ctx, op, responders)
		return 0, fmt.Errorf("%w: %d responders hold no write quorum", ErrUnavailable, responders.Len())
	}
	newVersion := maxVersion + 1
	prepared := c.ackRound(ctx, responders, replica.PrepareReplace{Op: op, Value: value, NewVersion: newVersion})
	if !prepared.Equal(responders) {
		c.abortAll(ctx, op, responders)
		return 0, fmt.Errorf("%w: prepare incomplete", ErrUnavailable)
	}
	committed := nodeset.Set{}
	remaining := responders.Clone()
	for attempt := 0; attempt <= commitRetries && !remaining.Empty(); attempt++ {
		acked := c.ackRound(ctx, remaining, replica.Commit{Op: op})
		committed = committed.Union(acked)
		remaining = remaining.Diff(acked)
	}
	if !c.layout.IsWriteQuorum(committed) {
		return 0, fmt.Errorf("%w: commit incomplete", ErrUnavailable)
	}
	return newVersion, nil
}

// Read returns the most recent value after locking a read quorum.
func (c *Coordinator) Read(ctx context.Context) ([]byte, uint64, error) {
	op := c.item.NextOp()
	quorum, ok := c.layout.ReadQuorum(c.all, hint(op))
	if !ok {
		return nil, 0, fmt.Errorf("%w: member set %v admits no read quorum", ErrUnavailable, c.all)
	}
	responses := c.lockRound(ctx, op, quorum, replica.LockRead)
	if v, ver, err := c.tryRead(ctx, op, responses); err == nil {
		return v, ver, nil
	}
	responses = c.lockRound(ctx, op, c.all, replica.LockRead)
	return c.tryRead(ctx, op, responses)
}

func (c *Coordinator) tryRead(ctx context.Context, op replica.OpID, responses []response) ([]byte, uint64, error) {
	var responders nodeset.Set
	var best nodeset.ID
	maxVersion := uint64(0)
	found := false
	for _, r := range responses {
		responders.Add(r.node)
		if !found || r.state.Version > maxVersion {
			maxVersion = r.state.Version
			best = r.node
			found = true
		}
	}
	defer c.abortAll(ctx, op, responders)
	if !found || !c.layout.IsReadQuorum(responders) {
		return nil, 0, fmt.Errorf("%w: %d responders hold no read quorum", ErrUnavailable, responders.Len())
	}
	callCtx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
	defer cancel()
	reply, err := c.net.Call(callCtx, c.item.Self(), best, replica.Envelope{Item: c.item.Name(), Msg: replica.FetchValue{Op: op}})
	if err != nil {
		return nil, 0, fmt.Errorf("%w: fetch failed", ErrUnavailable)
	}
	vr, ok := reply.(replica.ValueReply)
	if !ok {
		return nil, 0, fmt.Errorf("staticgrid: unexpected fetch reply %T", reply)
	}
	return vr.Value, vr.Version, nil
}

// Cluster wires a complete static-grid system, mirroring core.Cluster.
type Cluster struct {
	Net     *transport.Network
	Members nodeset.Set
	item    string

	nodes        map[nodeset.ID]*replica.Node
	coordinators map[nodeset.ID]*Coordinator
}

// NewCluster creates n nodes each replicating one item under the static
// protocol.
func NewCluster(n int, item string, initial []byte, opts Options, rcfg replica.Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("staticgrid: cluster needs at least one node, got %d", n)
	}
	opts = opts.withDefaults()
	if rcfg.LockLease == 0 {
		// Same invariant as the dynamic protocol: unprepared lock leases
		// must outlive a full lock round plus prepare delivery.
		rcfg.LockLease = 4 * opts.CallTimeout
	}
	c := &Cluster{
		Net:          transport.NewNetwork(),
		Members:      nodeset.Range(0, nodeset.ID(n)),
		item:         item,
		nodes:        make(map[nodeset.ID]*replica.Node),
		coordinators: make(map[nodeset.ID]*Coordinator),
	}
	for _, id := range c.Members.IDs() {
		node := replica.NewNode(id, c.Net, rcfg)
		it, err := node.AddItem(item, c.Members, initial)
		if err != nil {
			return nil, err
		}
		c.nodes[id] = node
		c.coordinators[id] = NewCoordinator(it, c.Net, c.Members, opts)
	}
	return c, nil
}

// Coordinator returns node id's coordinator.
func (c *Cluster) Coordinator(id nodeset.ID) *Coordinator { return c.coordinators[id] }

// Replica returns node id's replica.
func (c *Cluster) Replica(id nodeset.ID) *replica.Item {
	n := c.nodes[id]
	if n == nil {
		return nil
	}
	return n.Item(c.item)
}

// Crash fails a node.
func (c *Cluster) Crash(id nodeset.ID) { c.Net.Crash(id) }

// Restart revives a node.
func (c *Cluster) Restart(id nodeset.ID) { c.Net.Restart(id) }

// Close stops all nodes.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}
