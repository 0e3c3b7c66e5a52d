package replica

import (
	"context"
	"errors"
	"fmt"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/transport"
)

// Propagation: the asynchronous machinery that brings stale replicas up to
// date (paper, Section 4.2). A write (or epoch change) piggybacks the list
// of replicas it marked stale onto the "good" replicas; each good replica
// then runs the Propagate algorithm as a source. Many sources may race to
// refresh the same target; the target's locked-for-propagation bit and the
// "already-recovering" / "i-am-current" responses make the work idempotent
// and at-most-once per target.

// handlePropagationOffer implements the paper's PropagateResponse: reply
// "already-recovering" if a propagation is underway, "i-am-current" if this
// replica needs nothing from a source at version v, and otherwise lock the
// replica, remember the propagation operation, and permit the transfer.
func (it *Item) handlePropagationOffer(ctx context.Context, m PropagationOffer) (transport.Message, error) {
	now := time.Now()
	it.mu.Lock()
	if it.recovering {
		// Not yet readmitted by an epoch change: the source should retry
		// later, when this replica is a stale member ready for data.
		it.mu.Unlock()
		it.node.metrics.offerBusy.Inc()
		return PropagationReply{Status: PropAlreadyRecovering}, nil
	}
	if !it.propOp.IsZero() && it.lock.heldBy(now, it.propOp, lockExclusive) {
		it.mu.Unlock()
		it.node.metrics.offerBusy.Inc()
		return PropagationReply{Status: PropAlreadyRecovering}, nil
	}
	it.propOp = OpID{} // previous propagation finished or its lease expired
	it.mu.Unlock()

	// Take the replica lock before judging staleness. Answering
	// "i-am-current" from unlocked state would race with an in-flight 2PC
	// commit that is about to mark this replica stale: the source would
	// drop the target permanently while the target still needs the data.
	// Holding the lock serializes the offer after any prepared commit.
	if err := it.lock.acquire(ctx, now, m.Op, lockExclusive); err != nil {
		return nil, fmt.Errorf("replica %v/%s: propagation lock: %w", it.node.self, it.name, err)
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if !it.stale || it.desired > m.Version {
		it.lock.release(m.Op)
		it.node.metrics.offerCurrent.Inc()
		return PropagationReply{Status: PropIAmCurrent}, nil
	}
	it.propOp = m.Op
	it.node.metrics.offerPermitted.Inc()
	return PropagationReply{Status: PropPermitted, TargetVersion: it.store.Version()}, nil
}

// handlePropagationData applies the shipped updates (or snapshot), clears
// the stale flag, and releases the propagation lock.
func (it *Item) handlePropagationData(m PropagationData) (transport.Message, error) {
	if !it.lock.heldBy(time.Now(), m.Op, lockExclusive) {
		return Ack{Reason: "propagation lock not held"}, nil
	}
	it.mu.Lock()
	var err error
	var newVersion uint64
	if m.HasSnapshot {
		it.store.InstallSnapshot(m.Snapshot, m.SnapVersion)
		newVersion = m.SnapVersion
	} else {
		err = it.store.InstallUpdates(m.FromVersion, m.Updates)
		newVersion = it.store.Version()
	}
	if err == nil && newVersion >= it.desired {
		// Propagation brought this replica current: the staleness-duration
		// histogram gets the stale-mark-to-brought-current interval here.
		it.clearStaleLocked()
	}
	it.propOp = OpID{}
	it.publishStateLocked()
	it.mu.Unlock()
	it.lock.release(m.Op)
	if err != nil {
		return Ack{Reason: err.Error()}, nil
	}
	return ackOK, nil
}

// enqueuePropagation records stale targets and ensures a single worker is
// draining them. The worker runs for the life of the item; duplicate
// enqueues merge.
func (it *Item) enqueuePropagation(targets nodeset.Set) {
	targets = targets.Clone()
	targets.Remove(it.node.self)
	if targets.Empty() {
		return
	}
	if it.node.cfg.PropagationBatch {
		it.node.enqueueBatchPropagation(it.name, targets)
		return
	}
	it.propMu.Lock()
	it.pending = it.pending.Union(targets)
	it.propGen++
	start := !it.propRunning
	if start {
		it.propRunning = true
	}
	it.propMu.Unlock()
	if start {
		it.node.wg.Add(1)
		go it.propagateWorker()
	}
}

// PendingPropagation returns the targets the worker still owes updates
// (tests and introspection).
func (it *Item) PendingPropagation() nodeset.Set {
	it.propMu.Lock()
	defer it.propMu.Unlock()
	return it.pending.Clone()
}

// propagateWorker is the paper's Propagate loop: offer propagation to every
// pending target, dropping targets that report "i-am-current" and retrying
// the rest after a pause.
func (it *Item) propagateWorker() {
	defer it.node.wg.Done()
	for {
		select {
		case <-it.node.closed:
			return
		default:
		}
		it.propMu.Lock()
		targets := it.pending.Clone()
		if targets.Empty() {
			it.propRunning = false
			it.propMu.Unlock()
			return
		}
		it.propMu.Unlock()

		// A target is done with only if nothing was enqueued while its
		// round ran. An offer made before this replica applied a write
		// reaches the target after that write marked it stale, is answered
		// "i-am-current" (desired > offered) — and the write's own duty,
		// merged into pending meanwhile, must survive that answer. Such a
		// target is offered again at once: the source has the data now.
		again := false
		for _, target := range targets.IDs() {
			it.propMu.Lock()
			gen := it.propGen
			it.propMu.Unlock()
			done, err := it.propagateOnce(target)
			if done || err == nil {
				it.propMu.Lock()
				if it.propGen == gen {
					it.pending.Remove(target)
				} else {
					again = true
				}
				it.propMu.Unlock()
			}
		}

		it.propMu.Lock()
		empty := it.pending.Empty()
		if empty {
			it.propRunning = false
		}
		it.propMu.Unlock()
		if empty {
			return
		}
		if again {
			continue
		}
		select {
		case <-it.node.closed:
			return
		case <-time.After(it.node.cfg.PropagationRetry):
		}
	}
}

// errRetry marks outcomes that should be reattempted later.
var errRetry = errors.New("replica: propagation retry")

// propagateOnce runs one offer/transfer round toward target. It returns
// done=true when the target no longer needs this source ("i-am-current" or
// a successful transfer) and an error when the attempt should be retried.
//
// The source never takes its own replica lock. The paper locks both ends
// "only for simplicity of presentation ... various logging techniques can
// be employed to avoid using the same lock for propagation and write
// operations" (Section 4.2) — and here the update log and value are
// already mutated atomically under the item's mutex, so a mu-protected
// capture is a consistent committed prefix at some version ≥ the version
// offered (versions only grow). Shipping a newer committed prefix than
// offered is always safe: correctness only needs the shipped version to
// reach the target's desired version.
//
// The deadlock-freedom argument depends on this: propagation holds at most
// ONE transactional lock at a time (the target's, between the permitted
// offer and the data delivery, neither of which blocks on further locks).
// A source that also held its own lock across those calls would form
// timeout-length deadlock cycles with write and epoch coordinators, which
// acquire many replica locks concurrently.
func (it *Item) propagateOnce(target nodeset.ID) (done bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), it.node.cfg.PropagationCallTimeout)
	defer cancel()

	op := it.NextOp()
	it.mu.Lock()
	if it.stale || it.recovering {
		// A stale or recovering replica must not act as a propagation
		// source; drop the work — whichever replica is current owns it now.
		it.mu.Unlock()
		return true, nil
	}
	myVersion := it.store.Version()
	it.mu.Unlock()

	it.node.metrics.propRounds.Inc()
	reply, err := it.node.net.Call(ctx, it.node.self, target, Envelope{Item: it.name, Msg: PropagationOffer{Op: op, Version: myVersion}})
	if err != nil {
		it.node.metrics.propRetries.Inc()
		return false, errRetry
	}
	pr, ok := reply.(PropagationReply)
	if !ok {
		return false, fmt.Errorf("replica: unexpected offer reply %T", reply)
	}
	switch pr.Status {
	case PropIAmCurrent:
		return true, nil
	case PropAlreadyRecovering:
		it.node.metrics.propRetries.Inc()
		return false, errRetry
	case PropPermitted:
	default:
		return false, fmt.Errorf("replica: unknown propagation status %v", pr.Status)
	}

	// The target locked its replica and told us its version. Capture the
	// missing updates (or a snapshot) atomically; the captured state may be
	// newer than the version offered, which only helps the target.
	it.mu.Lock()
	data := PropagationData{Op: op}
	if ups, ok := it.store.UpdatesSince(pr.TargetVersion); ok {
		data.FromVersion = pr.TargetVersion
		data.Updates = ups
	} else {
		snap, v := it.store.Snapshot()
		data.HasSnapshot = true
		data.Snapshot = snap
		data.SnapVersion = v
	}
	it.mu.Unlock()
	if data.HasSnapshot {
		it.node.metrics.propSnapshots.Inc()
	} else {
		it.node.metrics.propUpdates.Inc()
	}

	reply, err = it.node.net.Call(ctx, it.node.self, target, Envelope{Item: it.name, Msg: data})
	if err != nil {
		// The target's lock lease will expire on its own.
		it.node.metrics.propRetries.Inc()
		return false, errRetry
	}
	if ack, ok := reply.(Ack); !ok || !ack.OK {
		it.node.metrics.propRetries.Inc()
		return false, errRetry
	}
	return true, nil
}
