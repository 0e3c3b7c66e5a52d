package replica

import (
	"context"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// Batched propagation (Config.PropagationBatch): the node-level analogue
// of the per-item propagation worker. After churn, one partition event
// typically marks a whole node's replicas stale at once; the per-item
// workers then each run their own offer/transfer negotiation against the
// same target — 2 round trips per item. The batched dispatcher instead
// offers every owed (item, version) pair to a target in ONE exchange and
// streams all permitted transfers in a second, so a catch-up of k items
// costs 2 round trips instead of 2k.
//
// Safety is inherited, not re-derived: each batch entry carries its own
// per-item OpID and the receiving node routes it through the exact
// single-item handlers (handlePropagationOffer / handlePropagationData),
// so the locked-for-propagation bit, the i-am-current and
// already-recovering answers, and the staleness accounting behave
// identically. The deadlock-freedom argument of propagate.go also holds:
// per item, the source still holds at most one transactional lock at a
// time (the target's), and the source never locks itself.

// nodeBatchMetrics are the dispatcher's counters, resolved once at node
// construction (nil-safe, like every obs metric).
type nodeBatchMetrics struct {
	rounds  *obs.Counter // replica_batch_prop_rounds_total: offer exchanges sent
	items   *obs.Counter // replica_batch_prop_items_total: item entries offered
	retries *obs.Counter // replica_batch_prop_retries_total: failed exchanges/entries
}

func newNodeBatchMetrics(r *obs.Registry) nodeBatchMetrics {
	return nodeBatchMetrics{
		rounds:  r.Counter("replica_batch_prop_rounds_total"),
		items:   r.Counter("replica_batch_prop_items_total"),
		retries: r.Counter("replica_batch_prop_retries_total"),
	}
}

// enqueueBatchPropagation is where Item.enqueuePropagation sends its work
// under Config.PropagationBatch: record the owed (target, item) pairs and
// ensure a single dispatcher worker is draining them. Duplicate enqueues
// merge.
func (n *Node) enqueueBatchPropagation(item string, targets nodeset.Set) {
	n.bpMu.Lock()
	n.bpGen++
	for _, id := range targets.IDs() {
		m := n.bpPending[id]
		if m == nil {
			m = make(map[string]uint64)
			n.bpPending[id] = m
		}
		m[item] = n.bpGen
	}
	start := !n.bpRunning
	if start {
		n.bpRunning = true
	}
	n.bpMu.Unlock()
	if start {
		n.wg.Add(1)
		go n.batchPropagateWorker()
	}
}

// PendingBatchPropagation returns the item names still owed to target
// (tests and introspection).
func (n *Node) PendingBatchPropagation(target nodeset.ID) []string {
	n.bpMu.Lock()
	defer n.bpMu.Unlock()
	names := make([]string, 0, len(n.bpPending[target]))
	for name := range n.bpPending[target] {
		names = append(names, name)
	}
	return names
}

// bpScratch is the dispatcher's reusable assembly state. The worker is a
// single goroutine, so one scratch per worker suffices; in steady state
// every slice has stabilized capacity and a round allocates nothing
// beyond what the transport itself requires (see batchprop_test.go's
// AllocsPerRun gate over the assembly path).
type bpScratch struct {
	names   []string
	offers  []ItemOffer
	items   []*Item
	datas   []ItemData
	updates []Update // shared backing for the per-entry Updates views
	done    []string // item names resolved for the current target
}

// batchPropagateWorker mirrors propagateWorker at node scope: drain every
// pending target, pause, retry what remains, exit when the queue is dry.
func (n *Node) batchPropagateWorker() {
	defer n.wg.Done()
	var sc bpScratch
	var targets []nodeset.ID
	for {
		select {
		case <-n.closed:
			return
		default:
		}
		n.bpMu.Lock()
		if len(n.bpPending) == 0 {
			n.bpRunning = false
			n.bpMu.Unlock()
			return
		}
		targets = targets[:0]
		for id := range n.bpPending {
			targets = append(targets, id)
		}
		n.bpMu.Unlock()

		again := false
		for _, target := range targets {
			if n.batchPropagateOnce(target, &sc) {
				again = true
			}
		}

		n.bpMu.Lock()
		empty := len(n.bpPending) == 0
		if empty {
			n.bpRunning = false
		}
		n.bpMu.Unlock()
		if empty {
			return
		}
		if again {
			continue
		}
		select {
		case <-n.closed:
			return
		case <-time.After(n.cfg.PropagationRetry):
		}
	}
}

// batchPropagateOnce runs one batched offer/transfer round toward target.
// Items that report i-am-current, complete their transfer, or may no
// longer be sourced from this node (stale/recovering local replica) are
// removed from the target's pending set; failed entries stay for the next
// round. It reports whether an item resolved by this round was enqueued
// again while the round ran and so is owed another round at once (the
// per-item worker's rule; see propagateWorker).
func (n *Node) batchPropagateOnce(target nodeset.ID, sc *bpScratch) (again bool) {
	sc.names, sc.done = sc.names[:0], sc.done[:0]
	n.bpMu.Lock()
	gen := n.bpGen
	for name := range n.bpPending[target] {
		sc.names = append(sc.names, name)
	}
	n.bpMu.Unlock()
	if len(sc.names) == 0 {
		return n.finishTarget(target, nil, gen)
	}

	sc.offers, sc.items = sc.offers[:0], sc.items[:0]
	for _, name := range sc.names {
		it := n.Item(name)
		if it == nil {
			sc.done = append(sc.done, name)
			continue
		}
		it.mu.Lock()
		skip := it.stale || it.recovering
		ver := it.store.Version()
		it.mu.Unlock()
		if skip {
			// A stale or recovering replica must not act as a propagation
			// source; whichever replica is current owns the work now.
			sc.done = append(sc.done, name)
			continue
		}
		sc.offers = append(sc.offers, ItemOffer{Item: name, Op: it.NextOp(), Version: ver})
		sc.items = append(sc.items, it)
	}
	if len(sc.offers) == 0 {
		return n.finishTarget(target, sc.done, gen)
	}

	n.bpMetrics.rounds.Inc()
	n.bpMetrics.items.Add(uint64(len(sc.offers)))
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PropagationCallTimeout)
	defer cancel()
	reply, err := n.net.Call(ctx, n.self, target, BatchPropagationOffer{Items: sc.offers})
	if err != nil {
		n.bpMetrics.retries.Inc()
		return n.finishTarget(target, sc.done, gen)
	}
	br, ok := reply.(BatchPropagationReply)
	if !ok {
		n.bpMetrics.retries.Inc()
		return n.finishTarget(target, sc.done, gen)
	}

	sc.datas, sc.updates = sc.datas[:0], sc.updates[:0]
	for i, ir := range br.Items {
		idx := n.matchOffer(sc.offers, i, ir.Item)
		if idx < 0 {
			continue
		}
		switch ir.Status {
		case PropIAmCurrent:
			sc.done = append(sc.done, ir.Item)
		case PropAlreadyRecovering:
			n.bpMetrics.retries.Inc()
		case PropPermitted:
			if d, ok := n.captureData(sc.items[idx], sc.offers[idx].Op, ir.TargetVersion, sc); ok {
				sc.datas = append(sc.datas, ItemData{Item: ir.Item, Data: d})
			} else {
				// The local replica went stale mid-round: drop the entry
				// (ownership moved); the target's propagation lock lease
				// expires on its own, as in the single-item path.
				sc.done = append(sc.done, ir.Item)
			}
		}
	}

	if len(sc.datas) > 0 {
		reply, err = n.net.Call(ctx, n.self, target, BatchPropagationData{Items: sc.datas})
		if err != nil {
			n.bpMetrics.retries.Inc()
		} else if ba, ok := reply.(BatchPropagationAck); ok {
			for _, a := range ba.Items {
				if a.OK {
					sc.done = append(sc.done, a.Item)
				} else {
					n.bpMetrics.retries.Inc()
				}
			}
		} else {
			n.bpMetrics.retries.Inc()
		}
	}
	return n.finishTarget(target, sc.done, gen)
}

// matchOffer resolves a reply entry back to its offer index. Replies come
// back in offer order, so the aligned index is checked first; a linear
// scan covers a reordering (or filtering) receiver.
func (n *Node) matchOffer(offers []ItemOffer, i int, item string) int {
	if i < len(offers) && offers[i].Item == item {
		return i
	}
	for j := range offers {
		if offers[j].Item == item {
			return j
		}
	}
	return -1
}

// captureData snapshots the updates (or value) a permitted target is
// missing, exactly as propagateOnce does: a mu-protected capture of a
// committed prefix at some version ≥ the version offered, which is always
// safe to ship. Update headers are appended to the shared scratch backing
// (shallow, zero-copy — see Store.AppendUpdatesSince); ok=false means the
// local replica may no longer source propagation.
func (n *Node) captureData(it *Item, op OpID, targetVersion uint64, sc *bpScratch) (PropagationData, bool) {
	it.mu.Lock()
	if it.stale || it.recovering {
		it.mu.Unlock()
		return PropagationData{}, false
	}
	d := PropagationData{Op: op}
	start := len(sc.updates)
	var okUp bool
	sc.updates, okUp = it.store.AppendUpdatesSince(sc.updates, targetVersion)
	if okUp {
		d.FromVersion = targetVersion
		d.Updates = sc.updates[start:len(sc.updates):len(sc.updates)]
	} else {
		snap, v := it.store.Snapshot()
		d.HasSnapshot, d.Snapshot, d.SnapVersion = true, snap, v
	}
	it.mu.Unlock()
	if d.HasSnapshot {
		it.node.metrics.propSnapshots.Inc()
	} else {
		it.node.metrics.propUpdates.Inc()
	}
	return d, true
}

// finishTarget removes the resolved item names from target's pending set,
// dropping the target entirely once nothing is owed. A name enqueued after
// the round began (its stamp is newer than gen) stays, and is reported.
func (n *Node) finishTarget(target nodeset.ID, done []string, gen uint64) (again bool) {
	n.bpMu.Lock()
	defer n.bpMu.Unlock()
	m := n.bpPending[target]
	for _, name := range done {
		if stamp, ok := m[name]; ok && stamp > gen {
			again = true
		} else {
			delete(m, name)
		}
	}
	if len(m) == 0 {
		delete(n.bpPending, target)
	}
	return again
}

// handleBatchOffer answers a batched offer by routing every entry through
// the single-item offer handler, preserving all of its safety behavior.
// An entry whose lock acquisition fails (context expiry under contention)
// answers already-recovering so the source retries it later.
func (n *Node) handleBatchOffer(ctx context.Context, m BatchPropagationOffer) (transport.Message, error) {
	reply := BatchPropagationReply{Items: make([]ItemOfferReply, 0, len(m.Items))}
	for _, off := range m.Items {
		it := n.Item(off.Item)
		if it == nil {
			// No replica here: nothing to propagate to.
			reply.Items = append(reply.Items, ItemOfferReply{Item: off.Item, Status: PropIAmCurrent})
			continue
		}
		r, err := it.handlePropagationOffer(ctx, PropagationOffer{Op: off.Op, Version: off.Version})
		if err != nil {
			reply.Items = append(reply.Items, ItemOfferReply{Item: off.Item, Status: PropAlreadyRecovering})
			continue
		}
		pr, ok := r.(PropagationReply)
		if !ok {
			reply.Items = append(reply.Items, ItemOfferReply{Item: off.Item, Status: PropAlreadyRecovering})
			continue
		}
		reply.Items = append(reply.Items, ItemOfferReply{Item: off.Item, Status: pr.Status, TargetVersion: pr.TargetVersion})
	}
	return reply, nil
}

// handleBatchData applies a batched transfer entry-by-entry through the
// single-item data handler.
func (n *Node) handleBatchData(m BatchPropagationData) (transport.Message, error) {
	ack := BatchPropagationAck{Items: make([]ItemAck, 0, len(m.Items))}
	for _, d := range m.Items {
		it := n.Item(d.Item)
		if it == nil {
			ack.Items = append(ack.Items, ItemAck{Item: d.Item, Reason: "no replica of item"})
			continue
		}
		r, err := it.handlePropagationData(d.Data)
		if err != nil {
			ack.Items = append(ack.Items, ItemAck{Item: d.Item, Reason: err.Error()})
			continue
		}
		if a, ok := r.(Ack); ok {
			ack.Items = append(ack.Items, ItemAck{Item: d.Item, OK: a.OK, Reason: a.Reason})
		} else {
			ack.Items = append(ack.Items, ItemAck{Item: d.Item, Reason: "unexpected reply"})
		}
	}
	return ack, nil
}
