package replica

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// Node hosts the replicas living on one network node, one Item per data
// item, and dispatches incoming protocol messages to them. A node can
// replicate any number of items; epoch state is per item (paper, Section 3),
// though the epoch-checking coordinator may sweep a whole group of items to
// amortize its polling (paper, Section 2).
type Node struct {
	// Set by NewNode and never written afterwards: what the node's items
	// have in common, which each reads through its one pointer to the node
	// instead of carrying a copy.
	self    nodeset.ID
	net     transport.Net
	cfg     Config // defaults applied
	metrics itemMetrics
	lockEnv lockEnv

	mu         sync.RWMutex
	items      map[string]*Item
	autoCreate func(name string) *Item

	// Termination resolver state (decision.go): the items with staged 2PC
	// actions since the last sweep took the list, walked by one on-demand
	// goroutine per node. Ordered after Item.mu (watchStaged runs under it).
	resMu      sync.Mutex
	resWatched []*Item
	resRunning bool

	// closed stops, and wg counts, every background goroutine of the node and
	// of its items: the resolver and the items' propagation workers. Closed
	// once, under resMu (see Close).
	closed chan struct{}
	wg     sync.WaitGroup
}

// NewNode creates a node and registers its message handler with the
// network.
func NewNode(self nodeset.ID, net transport.Net, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		self:    self,
		net:     net,
		cfg:     cfg,
		metrics: newItemMetrics(cfg.Obs),
		lockEnv: newLockEnv(cfg.LockLease, cfg.Obs),
		items:   make(map[string]*Item),
		closed:  make(chan struct{}),
	}
	// Registered at zero here, once per node: a must-be-zero monitor has to
	// be on the metrics page before it fires (see Item.decided).
	cfg.Obs.Counter(decisionUnknownMetric)
	net.Register(self, n.handle)
	return n
}

// Self returns the node's ID.
func (n *Node) Self() nodeset.ID { return n.self }

// AddItem creates this node's replica of a data item. members is the full
// replica set of the item (the initial epoch — "originally all replicas of
// the data item form the current epoch", paper Section 1); initial is the
// starting value, identical on every replica. The replica keeps initial by
// reference — any number of items may be given the same slice — and only
// reads it: the caller must not modify it after the call.
func (n *Node) AddItem(name string, members nodeset.Set, initial []byte) (*Item, error) {
	if !members.Contains(n.self) {
		return nil, fmt.Errorf("replica: node %v not in member set %v of item %q", n.self, members, name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.items[name]; ok {
		return nil, fmt.Errorf("replica: item %q already exists on node %v", name, n.self)
	}
	return n.newItemLocked(name, members, initial), nil
}

// newItemLocked builds the replica and publishes it to the dispatch map.
// Called with mu held.
func (n *Node) newItemLocked(name string, members nodeset.Set, initial []byte) *Item {
	it := newItem(n, name, members, initial)
	n.items[name] = it
	return it
}

// EnsureItem returns this node's replica of the named item, creating it
// as AddItem would if absent. Unlike AddItem it is idempotent, which makes
// it the right shape for a sharded daemon where a replica may be
// provisioned lazily from either side — a client operation arriving at the
// co-located coordinator, or a protocol message from a peer coordinator —
// and both may race on first touch. The members and initial value are only
// used on creation (initial as AddItem uses it: kept by reference, not to be
// modified afterwards); an existing replica is returned as-is. The boolean
// reports whether this call created the replica — exactly one racing
// caller sees true, so creation-time setup (e.g. a recovering daemon's
// Amnesia) runs once.
func (n *Node) EnsureItem(name string, members nodeset.Set, initial []byte) (*Item, bool, error) {
	n.mu.RLock()
	it := n.items[name]
	n.mu.RUnlock()
	if it != nil {
		return it, false, nil
	}
	if !members.Contains(n.self) {
		return nil, false, fmt.Errorf("replica: node %v not in member set %v of item %q", n.self, members, name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if it, ok := n.items[name]; ok {
		return it, false, nil
	}
	return n.newItemLocked(name, members, initial), true, nil
}

// SetAutoCreate installs a provisioner consulted when a protocol message
// arrives for an item this node does not replicate yet: fn returns the
// item's replica — typically by deciding placement and calling EnsureItem,
// plus whatever creation-time policy the host applies (a recovering
// daemon's Amnesia, say) — or nil to refuse the item. With a provisioner
// installed, a node can serve a keyspace of millions of items without
// instantiating any replica before its first touch — a peer coordinator's
// first lock or prepare materializes the replica on demand. Must be called
// before the node serves traffic; fn must be safe for concurrent use.
func (n *Node) SetAutoCreate(fn func(name string) *Item) {
	n.mu.Lock()
	n.autoCreate = fn
	n.mu.Unlock()
}

// Item returns this node's replica of the named item, or nil.
func (n *Node) Item(name string) *Item {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.items[name]
}

// Items returns the names of all items replicated on this node.
func (n *Node) Items() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	names := make([]string, 0, len(n.items))
	for name := range n.items {
		names = append(names, name)
	}
	return names
}

// Handler exposes the node's message handler so a host process can compose
// it with other routes (e.g. a transport.Mux whose default route is the
// node and whose typed routes serve a daemon's client API) and re-register
// the composite at the node's endpoint.
func (n *Node) Handler() transport.Handler { return n.handle }

// handle is the node's transport handler: route the envelope to its item,
// or answer node-level queries directly.
func (n *Node) handle(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
	switch m := req.(type) {
	case GroupStateQuery:
		return n.groupState(), nil
	case Envelope:
		it := n.Item(m.Item)
		if it == nil {
			if it = n.autoCreateItem(m.Item); it == nil {
				return nil, fmt.Errorf("replica: node %v has no replica of item %q", n.self, m.Item)
			}
		}
		if tc := obs.TraceFrom(ctx); tc.Sampled && tc.Valid() {
			return n.handleTraced(ctx, from, it, m.Msg, tc)
		}
		return it.serve(ctx, from, m.Msg)
	default:
		return nil, fmt.Errorf("replica: node %v: unexpected message %T", n.self, req)
	}
}

// handleTraced serves one protocol message under a sampled distributed
// trace, recording a server span — a minimal flight-recorder trace tagged
// with the operation's trace ID — so an aggregator can reassemble the
// cross-node timeline of one client operation from each node's recorder.
// Only sampled operations reach this path, which is what keeps recorder
// pressure (ring churn, pooled-ActiveOp traffic) bounded under load.
func (n *Node) handleTraced(ctx context.Context, from nodeset.ID, it *Item, msg any, tc obs.TraceContext) (transport.Message, error) {
	began := transport.Now(ctx)
	a := n.cfg.Obs.Flight().Begin(obs.OpServe, n.self, tc.SpanID, it.Name(), began)
	a.Trace(tc)
	reply, err := it.serve(ctx, from, msg)
	ended := time.Now()
	a.Phase(spanPhase(msg), began, ended, 1, 0)
	if err != nil {
		a.End(obs.OutcomeError, 0, ended)
	} else {
		a.End(obs.OutcomeOK, 0, ended)
	}
	return reply, err
}

// spanPhase maps a protocol message to the coordinator phase it belongs
// to, so a server span names the round it served.
func spanPhase(msg any) obs.Phase {
	switch msg.(type) {
	case StateQuery, DecisionQuery:
		return obs.PhasePoll
	case LockRequest, LockPrepare, *LockPrepare:
		return obs.PhaseLock
	case PrepareUpdate, PrepareReplace, PrepareStale, PrepareEpoch:
		return obs.PhasePrepare
	case Commit, Abort, ApplyDirect:
		return obs.PhaseCommit
	case ReadSnap, *ReadSnap, FetchValue:
		return obs.PhaseFetch
	default:
		return obs.PhaseNone
	}
}

// autoCreateItem consults the installed provisioner for an unknown item,
// returning the (possibly concurrently created) replica or nil.
func (n *Node) autoCreateItem(name string) *Item {
	n.mu.RLock()
	fn := n.autoCreate
	n.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(name)
}

// groupState snapshots every hosted item's state.
func (n *Node) groupState() GroupStateReply {
	n.mu.RLock()
	items := make([]*Item, 0, len(n.items))
	for _, it := range n.items {
		items = append(items, it)
	}
	n.mu.RUnlock()
	reply := GroupStateReply{States: make(map[string]StateReply, len(items))}
	for _, it := range items {
		reply.States[it.Name()] = it.State()
	}
	return reply
}

// Close stops the termination resolver and all items' background work, and
// waits for them to exit. It may be called more than once, from any
// goroutines.
func (n *Node) Close() {
	// Under resMu, so that concurrent calls close the channel once and no
	// staging still in flight starts the resolver — and adds to wg — behind
	// the Wait below (see watchStaged).
	n.resMu.Lock()
	select {
	case <-n.closed:
	default:
		close(n.closed)
	}
	n.resMu.Unlock()
	n.wg.Wait()
}
