package replica

import (
	"time"

	"coterie/internal/nodeset"
)

// Crash amnesia. The paper's fail-stop model implicitly assumes stable
// storage: a node that returns remembers its version number, stale flag
// and epoch. If a replica instead loses its state (disk loss, rebuild),
// it must NOT simply rejoin with zeroed state — quorum intersection only
// yields one-copy serializability because overlap nodes *witness* earlier
// operations, and an amnesiac overlap node would silently un-witness a
// committed write, letting a later quorum read stale data.
//
// The safe protocol, implemented here: an amnesiac replica marks itself
// *recovering*. While recovering it still answers lock and state requests
// (so an epoch change can include it) but flags the reply; coordinators
// exclude recovering replicas from every quorum computation and from
// good/stale classification. The next successful epoch change — which by
// Lemma 1 contacts a write quorum of the current epoch and therefore
// learns the true current state — admits the replica as a stale member
// with the epoch's desired version, and ordinary propagation rebuilds it.
// Only then does the replica count again.
//
// The reborn store resets onto the item's *configured initial value*, not
// an empty one. The initial value is deployment configuration — whoever
// restarts the process re-supplies it to AddItem — so keeping it does not
// smuggle any lost state back in. It is also what makes the rebuild
// correct when the propagation source ships update replay rather than a
// snapshot: every committed update from version 1 onward was applied on
// top of that initial value, so replaying the log from version 0 onto it
// reproduces the committed value exactly. Replaying onto an empty base
// instead silently truncates the value to the highest byte any update
// ever touched — a one-copy-serializability violation the moment a read
// lands on the rebuilt replica.

// Amnesia simulates total loss of the replica's stable state: version,
// flags, epoch view, staged transactions, decision log and lock table all
// reset, the value returns to the configured initial, and the replica
// enters the recovering state.
func (it *Item) Amnesia() {
	it.node.metrics.amnesia.Inc()
	it.mu.Lock()
	it.store = NewStore(it.initial, it.node.cfg.MaxLog)
	it.stale = false
	it.desired = 0
	it.epoch = nodeset.Set{}
	it.epochNum = 0
	it.good = nodeset.Set{}
	it.goodVer = 0
	it.staged = staged{}
	it.propOp = OpID{}
	it.recovering = true
	it.notePayloadLocked()
	it.mu.Unlock()

	// The decision log lives on its own stripe (decision.go).
	it.decMu.Lock()
	it.node.metrics.decisionBytes.Add(-int64(it.decisions.bytes()))
	it.decisions = decisionLog{}
	it.decMu.Unlock()

	// The lock table was volatile too: drop every hold so waiters proceed
	// against the fresh (recovering) replica.
	it.lock.resetHolders(time.Now())

	it.propMu.Lock()
	it.pending = nodeset.Set{}
	it.propMu.Unlock()
}

// Recovering reports whether the replica is quarantined after amnesia.
func (it *Item) Recovering() bool {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.recovering
}
