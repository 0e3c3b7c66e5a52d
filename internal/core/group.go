package core

import (
	"context"
	"fmt"
	"slices"

	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Group is a set of nodes replicating several data items together. Reads
// and writes remain per item, but epoch management is amortized over the
// whole group: one lock-free poll round covers every item, and only items
// whose membership view actually changed pay for the locked epoch-change
// rounds (paper, Section 2: "the epoch management can be done per this
// whole group of data... the overhead is amortized over several data
// items, whereas if epoch management is bundled with writes it must be
// done separately for each data item").
//
// NewGroup is the one in-process cluster builder: a Cluster is a group of
// one item, and an ElectedCluster is a Cluster with electors attached.
type Group struct {
	Net     *transport.Network
	Members nodeset.Set
	Items   []string // sorted
	opts    Options

	// nodes[id] and coords[item][id]; neither is mutated after NewGroup.
	nodes  []*replica.Node
	coords map[string][]*Coordinator

	pulse pulse // the periodic epoch check, if one was started
}

// NewGroup creates n nodes (IDs 0..n-1), each replicating every named item
// on one simulated network and hosting a coordinator for it. initial maps
// item names to initial values (missing entries start empty). Under a
// weighted strategy every coordinator of every item shares one load tracker
// and one strategy engine (WithSharedEngine).
func NewGroup(n int, items []string, initial map[string][]byte, opts Options) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: group needs at least one node, got %d", n)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("core: group needs at least one item")
	}
	sorted := slices.Sorted(slices.Values(items))
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("core: duplicate item %q", sorted[i])
		}
	}
	opts = opts.withDefaults()
	tOpts := opts.Transport
	if opts.Obs != nil {
		// The network records into the same registry as the coordinators
		// and replicas, so one snapshot covers every layer.
		tOpts = append(slices.Clip(tOpts), transport.WithObs(opts.Obs))
	}
	g := &Group{
		Net:     transport.NewNetwork(tOpts...),
		Members: nodeset.Range(0, nodeset.ID(n)),
		Items:   sorted,
		coords:  make(map[string][]*Coordinator, len(sorted)),
	}
	g.opts = WithSharedEngine(opts, g.Members)
	for _, id := range g.Members.IDs() {
		node := replica.NewNode(id, g.Net, g.opts.Replica)
		g.nodes = append(g.nodes, node)
		for _, item := range g.Items {
			it, err := node.AddItem(item, g.Members, initial[item])
			if err != nil {
				g.Close()
				return nil, err
			}
			g.coords[item] = append(g.coords[item], NewCoordinator(it, g.Net, g.Members, g.opts))
		}
	}
	return g, nil
}

// Coordinator returns the coordinator for item co-located with node id.
func (g *Group) Coordinator(item string, id nodeset.ID) *Coordinator {
	return at(g.coords[item], id)
}

// Node returns the replica node with the given ID.
func (g *Group) Node(id nodeset.ID) *replica.Node { return at(g.nodes, id) }

// Replica returns node id's replica of item.
func (g *Group) Replica(item string, id nodeset.ID) *replica.Item {
	if n := g.Node(id); n != nil {
		return n.Item(item)
	}
	return nil
}

// at returns s[id], or nil for an ID outside the members.
func at[T any](s []*T, id nodeset.ID) *T {
	if id < 0 || int(id) >= len(s) {
		return nil
	}
	return s[id]
}

// Crash fails a node (fail-stop) for every item it replicates. Its replica
// state survives for Restart, modeling a node with stable storage.
func (g *Group) Crash(id nodeset.ID) { g.Net.Crash(id) }

// Restart brings a crashed node back.
func (g *Group) Restart(id nodeset.ID) { g.Net.Restart(id) }

// UpMembers returns the currently reachable members.
func (g *Group) UpMembers() nodeset.Set { return g.Net.UpNodes().Intersect(g.Members) }

// CheckEpochs runs one amortized epoch check over the whole group from the
// given initiator: a single GroupStateQuery round polls every item's state
// on every node, and items whose view changed run their (per-item) epoch
// change. It returns per-item results; items that failed their change get
// no entry and contribute to err (the first failure).
func (g *Group) CheckEpochs(ctx context.Context, initiator nodeset.ID) (map[string]CheckResult, error) {
	if g.Node(initiator) == nil {
		return nil, fmt.Errorf("core: unknown initiator %v", initiator)
	}
	callCtx, cancel := deadline.Bound(ctx, g.opts.CallTimeout)
	// Slice the group poll per item as replies arrive.
	perItem := make(map[string][]response, len(g.Items))
	g.Net.MulticastFunc(callCtx, initiator, g.Members, replica.GroupStateQuery{},
		func(id nodeset.ID, r transport.Result) {
			if r.Err != nil {
				return
			}
			gr, ok := r.Reply.(replica.GroupStateReply)
			if !ok {
				return
			}
			for item, st := range gr.States {
				perItem[item] = append(perItem[item], response{node: id, state: st})
			}
		})
	cancel()

	out := make(map[string]CheckResult, len(g.Items))
	var firstErr error
	for _, item := range g.Items {
		co := g.Coordinator(item, initiator)
		res, err := co.checkEpochFromPoll(ctx, perItem[item])
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: item %q: %w", item, err)
			}
			continue
		}
		out[item] = res
	}
	return out, firstErr
}

// Close stops the epoch-check pulse and every node's background work.
func (g *Group) Close() {
	g.pulse.halt()
	for _, n := range g.nodes {
		n.Close()
	}
}
