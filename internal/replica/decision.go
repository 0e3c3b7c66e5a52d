package replica

import (
	"context"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/transport"
)

// Two-phase-commit termination. The paper relies on atomic commitment from
// [2] without spelling out recovery; a production implementation needs a
// way for a participant that prepared an action — and therefore holds its
// replica lock pinned — to learn the outcome when the coordinator's
// commit/abort never arrives (lost message, coordinator crash).
//
// The mechanism here is a standard coordinator-log termination protocol:
//
//   - the coordinator durably records its decision at its co-located
//     replica (RecordDecision) before distributing it;
//   - every node runs a resolver that walks the items with staged actions,
//     notices the ones older than ResolveAfter and asks the coordinator's
//     replica for the decision (DecisionQuery), then commits or aborts
//     locally.
//
// If the coordinator node stays unreachable the participant remains
// blocked — 2PC's inherent window — but any recovery or heal resolves it.

// maxDecisions bounds the per-replica decision log; the oldest entries are
// overwritten. An overwritten decision can no longer resolve a participant
// (its query is answered Known:false, counted by
// replica_decision_unknown_total, and it stays pinned), so retention must
// outlast the resolver's first query, ResolveAfter after the staging. It
// does, but not by hours: one item-coordinator committing 500 writes a
// second fills 8192 entries in 16 s, which is ResolveAfter under core's
// default CallTimeout of 2 s (2 x LockLease = 8 x CallTimeout; a daemon's
// default CallTimeout is 250 ms and its ResolveAfter 2 s) — a deployment
// that sustains more per item-coordinator must shorten ResolveAfter to
// match.
const maxDecisions = 8192

// decision is one logged outcome, 16 bytes. Every logged operation was
// coordinated by this replica's own node, so its sequence number alone
// identifies it. vc packs version<<1 | commit; version is the version
// number a commit produced — zero when the operation has none (aborts,
// epoch changes, stale-markings) — and exists to gate speculatively staged
// actions: a LockPrepare participant whose staging the coordinator never
// saw must not apply it under a commit that decided a different version.
type decision struct {
	seq uint64
	vc  uint64
}

// applies reports whether this decision commits a staged action expecting
// specVersion (zero for coordinator-endorsed stagings, which take the
// plain decision).
func (d decision) applies(specVersion uint64) bool {
	return d.vc&1 == 1 && (specVersion == 0 || d.vc>>1 == specVersion)
}

// decisionLog is a ring of the last maxDecisions outcomes. Its size is
// fixed by that bound, not by how many operations the node has completed,
// and it is allocated as it first fills: the first chunk's worth of slots in
// a slice that starts at four and doubles, so an item that coordinates
// little pays for little, and after it a whole chunk at a time, so a busy
// ring never holds more than a chunk it has not reached. A full ring is 128
// KB of slots.
type decisionLog struct {
	head   []decision                 // slots 0 … decisionChunk-1
	chunks []*[decisionChunk]decision // chunk c holds slots (c+1)·decisionChunk …
	n      int                        // records ever written; record k lives in slot k % maxDecisions
}

const decisionChunk = 128 // 2 KB; divides maxDecisions

func (l *decisionLog) slot(k int) *decision {
	i := k % maxDecisions
	if i < decisionChunk {
		return &l.head[i]
	}
	return &l.chunks[i/decisionChunk-1][i%decisionChunk]
}

func (l *decisionLog) record(d decision) {
	switch {
	case l.n >= maxDecisions: // every slot exists
	case l.n < decisionChunk:
		if l.n == len(l.head) {
			grown := make([]decision, max(4, 2*l.n))
			copy(grown, l.head)
			l.head = grown
		}
	case l.n%decisionChunk == 0:
		l.chunks = append(l.chunks, new([decisionChunk]decision))
	}
	*l.slot(l.n) = d
	l.n++
}

// lookup scans newest first, so the latest record for a sequence number
// wins (an abort logged on a round's failure, then the commit of a later
// round of the same operation). Termination queries are rare; the scan is
// at most 128 KB.
func (l *decisionLog) lookup(seq uint64) (decision, bool) {
	for k := l.n - 1; k >= 0 && k >= l.n-maxDecisions; k-- {
		if d := *l.slot(k); d.seq == seq {
			return d, true
		}
	}
	return decision{}, false
}

// RecordDecision logs the outcome of an operation this node coordinated.
// The log lives on its own mutex stripe so the coordinator's write-ahead
// decision record and participants' termination queries never contend with
// the replica data path.
func (it *Item) RecordDecision(op OpID, commit bool) {
	vc := uint64(0)
	if commit {
		vc = 1
	}
	it.record(decision{seq: op.Seq, vc: vc})
}

// RecordCommit logs a commit decision together with the version the write
// produced, so version-gated termination queries (speculative stagings)
// can be answered.
func (it *Item) RecordCommit(op OpID, version uint64) {
	it.record(decision{seq: op.Seq, vc: version<<1 | 1})
}

func (it *Item) record(d decision) {
	it.decMu.Lock()
	it.decisions.record(d)
	it.decMu.Unlock()
}

// decisionUnknownMetric counts termination queries that found no decision.
const decisionUnknownMetric = "replica_decision_unknown_total"

// decided looks op up in the log. Only operations this node coordinated
// are ever logged; an unknown one is counted, because its participant now
// stays pinned until an operator steps in.
func (it *Item) decided(op OpID) (decision, bool) {
	known := false
	var d decision
	if op.Coordinator == it.node.self {
		it.decMu.Lock()
		d, known = it.decisions.lookup(op.Seq)
		it.decMu.Unlock()
	}
	if !known {
		it.node.cfg.Obs.Counter(decisionUnknownMetric).Inc() // as rare as the event: not worth a field per item
	}
	return d, known
}

// handleDecisionQuery answers a participant's termination query.
func (it *Item) handleDecisionQuery(m DecisionQuery) (transport.Message, error) {
	d, known := it.decided(m.Op)
	return DecisionReply{Known: known, Commit: known && d.applies(m.NewVersion)}, nil
}

// watchStaged puts it on the node's termination walk and starts the walk if
// it is parked. Item.stageLocked calls it, under the item's mu, when it
// stages at an item that is not on the walk (Item.watched); a sweep takes the
// item off again, under the same mu, when it finds nothing staged there — so
// a staging can never be missed between the two, and an item is on the walk
// at most once. One goroutine and one ticker serve every item of the node: a
// write burst over a hundred thousand lazily materialized items starts no
// goroutine and arms no timer per item, and a node with nothing staged runs
// neither.
func (n *Node) watchStaged(it *Item) {
	n.resMu.Lock()
	defer n.resMu.Unlock()
	n.resWatched = append(n.resWatched, it)
	if n.resRunning {
		return
	}
	select {
	case <-n.closed:
		return
	default:
	}
	n.resRunning = true
	n.wg.Add(1)
	go n.resolveLoop()
}

// resolveLoop sweeps the watched items every ResolveInterval and parks
// itself (returns) once a sweep leaves none.
func (n *Node) resolveLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.ResolveInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-ticker.C:
		}
		// Take the list; items staged at meanwhile join a fresh one.
		n.resMu.Lock()
		items := n.resWatched
		n.resWatched = nil
		n.resMu.Unlock()

		// A coordinator that failed to answer one item's query is not asked
		// again this sweep: one walk serves every item, so an unreachable
		// node must cost it one call timeout, not one per blocked item.
		var unreachable nodeset.Set
		kept := items[:0]
		for _, it := range items {
			if !it.unwatchIfDrained() {
				it.resolveStale(&unreachable)
				kept = append(kept, it)
			}
		}

		n.resMu.Lock()
		n.resWatched = append(n.resWatched, kept...)
		if len(n.resWatched) == 0 {
			n.resRunning = false
			n.resMu.Unlock()
			return
		}
		n.resMu.Unlock()
	}
}

// unwatchIfDrained takes it off the walk if nothing is staged at it, which
// is how nearly every watched item is found: its write committed long before
// the sweep. The emptiness check and the flag share one critical section of
// mu, the lock stageLocked holds when it tests the flag.
func (it *Item) unwatchIfDrained() bool {
	it.mu.Lock()
	defer it.mu.Unlock()
	if !it.staged.op.IsZero() {
		return false
	}
	it.watched = false
	return true
}

// resolveStale queries the coordinator of the staged action, if it is old
// enough, and applies the learned decision. A speculative staging carries its
// staged version in the query so a commit that decided a different version
// resolves it as abort. A coordinator whose query fails is added to
// unreachable, and one already in it is skipped.
func (it *Item) resolveStale(unreachable *nodeset.Set) {
	it.mu.Lock()
	st := it.staged
	it.mu.Unlock()
	if st.op.IsZero() || st.preparedAt >= time.Now().Add(-it.node.cfg.ResolveAfter).UnixNano() {
		return
	}
	op, specVersion := st.op, uint64(0)
	if st.speculative {
		specVersion = st.version
	}
	if op.Coordinator == it.node.self {
		// Local coordinator: consult the log directly.
		if d, known := it.decided(op); known {
			it.applyDecision(op, d.applies(specVersion))
		}
		return
	}
	if unreachable.Contains(op.Coordinator) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), it.node.cfg.PropagationCallTimeout)
	reply, err := it.node.net.Call(ctx, it.node.self, op.Coordinator, Envelope{Item: it.name, Msg: DecisionQuery{Op: op, NewVersion: specVersion}})
	cancel()
	if err != nil {
		unreachable.Add(op.Coordinator) // coordinator unreachable; stay blocked
		return
	}
	if dr, ok := reply.(DecisionReply); ok && dr.Known {
		it.applyDecision(op, dr.Commit)
	}
}

// applyDecision commits or aborts a staged action locally.
func (it *Item) applyDecision(op OpID, commit bool) {
	if commit {
		_, _ = it.handleCommit(Commit{Op: op})
	} else {
		_, _ = it.handleAbort(Abort{Op: op})
	}
}
