package replica

import (
	"time"

	"coterie/internal/obs"
)

// itemMetrics holds the replica layer's obs counters, resolved once per node
// (NewNode) and read by its items through it. All nodes in a process share a
// registry, so these aggregate across items and nodes. Resolving against a
// nil registry yields nil metrics whose recording methods are no-ops (see
// obs.Nop), so the data path carries no conditionals.
type itemMetrics struct {
	commits      *obs.Counter
	staleMarked  *obs.Counter
	staleCleared *obs.Counter
	// stalenessNS measures the paper's Section 4.2 window: how long a
	// replica stays marked stale before asynchronous propagation (or a
	// covering write) brings it current. Recorded on every stale→current
	// transition.
	stalenessNS   *obs.Histogram
	epochInstalls *obs.Counter
	readmitted    *obs.Counter
	amnesia       *obs.Counter

	offerPermitted *obs.Counter
	offerBusy      *obs.Counter
	offerCurrent   *obs.Counter
	propRounds     *obs.Counter
	propUpdates    *obs.Counter
	propSnapshots  *obs.Counter
	propRetries    *obs.Counter

	// Direct-applies (write-through pushes and the safety-threshold
	// extension) by what became of them. A refusal for a gap means the
	// replica missed an earlier push and waits to be drawn into a quorum;
	// stale and recovering replicas are already owed propagation; busy
	// means a write held or awaited the replica's lock, and that write
	// will find the replica behind.
	pushApplied    *obs.Counter
	pushBusy       *obs.Counter
	pushGap        *obs.Counter
	pushStale      *obs.Counter
	pushRecovering *obs.Counter

	// What the node holds: replicas built, and the sum of their values'
	// lengths (see publishStateLocked). cotop's memory line sets them against
	// process_heap_bytes.
	items        *obs.Gauge
	payloadBytes *obs.Gauge
}

func newItemMetrics(r *obs.Registry) itemMetrics {
	return itemMetrics{
		commits:        r.Counter("replica_commits_total"),
		staleMarked:    r.Counter("replica_stale_marked_total"),
		staleCleared:   r.Counter("replica_stale_cleared_total"),
		stalenessNS:    r.Histogram("replica_staleness_duration_ns"),
		epochInstalls:  r.Counter("replica_epoch_installs_total"),
		readmitted:     r.Counter("replica_readmitted_total"),
		amnesia:        r.Counter("replica_amnesia_total"),
		offerPermitted: r.Counter("replica_propagation_offers_permitted_total"),
		offerBusy:      r.Counter("replica_propagation_offers_busy_total"),
		offerCurrent:   r.Counter("replica_propagation_offers_current_total"),
		propRounds:     r.Counter("replica_propagation_rounds_total"),
		propUpdates:    r.Counter("replica_propagation_updates_total"),
		propSnapshots:  r.Counter("replica_propagation_snapshots_total"),
		propRetries:    r.Counter("replica_propagation_retries_total"),
		pushApplied:    r.Counter("replica_push_applied_total"),
		pushBusy:       r.Counter("replica_push_refused_busy_total"),
		pushGap:        r.Counter("replica_push_refused_gap_total"),
		pushStale:      r.Counter("replica_push_refused_stale_total"),
		pushRecovering: r.Counter("replica_push_refused_recovering_total"),
		items:          r.Gauge("replica_items"),
		payloadBytes:   r.Gauge("replica_payload_bytes"),
	}
}

// markStaleLocked flags the replica stale with the given desired version,
// stamping the staleness clock on the current→stale edge. Caller holds mu.
func (it *Item) markStaleLocked(desired uint64) {
	if !it.stale {
		it.node.metrics.staleMarked.Inc()
		it.staleSince = time.Now()
	}
	it.stale = true
	it.desired = desired
}

// clearStaleLocked marks the replica current, recording how long it was
// stale. Caller holds mu.
func (it *Item) clearStaleLocked() {
	if it.stale {
		it.node.metrics.staleCleared.Inc()
		it.node.metrics.stalenessNS.RecordDuration(time.Since(it.staleSince))
	}
	it.stale = false
	it.desired = 0
}
