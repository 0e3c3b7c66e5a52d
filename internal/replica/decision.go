package replica

import (
	"context"
	"time"
	"unsafe"

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
// match. A slot is 4 bytes (16 in a chunk that met a record too far from its
// base), so a full ring is 32 KB of slots and a 2 KB chunk table.
const maxDecisions = 8192

// decision is one logged outcome, 16 bytes unpacked. Every logged operation
// was coordinated by this replica's own node, so its sequence number alone
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

// A slot packs a decision against its chunk's base: bit 0 the commit bit,
// bits 1–12 the sequence number less the base's and bits 13–31 the version
// less the base's, both two's complement, or slotVerZero for version 0.
const (
	slotSeqBits  = 12
	slotSeqMask  = (1<<slotSeqBits - 1) << 1
	slotSeqSpan  = 1 << (slotSeqBits - 1)
	slotVerShift = 1 + slotSeqBits
	slotVerZero  = -1 << (31 - slotVerShift)
)

// decisionBase is what a chunk's slots are deltas from: the sequence number
// of its lap's first record and the first nonzero version of the lap.
type decisionBase struct{ seq, ver uint64 }

// pack encodes d against b, or reports that it does not fit.
func (b *decisionBase) pack(d decision) (uint32, bool) {
	ver := d.vc >> 1
	if b.ver == 0 {
		b.ver = ver
	}
	ds, dv := int64(d.seq-b.seq), int64(ver-b.ver)
	if ver == 0 {
		dv = slotVerZero
	}
	fits := ds >= -slotSeqSpan && ds < slotSeqSpan && (ver == 0 || dv > slotVerZero && dv < -slotVerZero)
	return uint32(dv)<<slotVerShift | uint32(ds)<<1&slotSeqMask | uint32(d.vc&1), fits
}

// unpack decodes slot s, packed against b.
func (b decisionBase) unpack(s uint32) decision {
	ver := uint64(0)
	if dv := int64(int32(s) >> slotVerShift); dv != slotVerZero {
		ver = b.ver + uint64(dv)
	}
	ds := int64(int32(s<<(31-slotSeqBits)) >> (32 - slotSeqBits))
	return decision{seq: b.seq + uint64(ds), vc: ver<<1 | uint64(s&1)}
}

// decisionChunkEntry is one chunk of the ring: its base and its slots,
// packed or, once a record did not fit the base, wide for good.
type decisionChunkEntry struct {
	decisionBase
	slots *[decisionChunk]uint32 // nil for chunk 0, whose slots are the log's head
	wide  *[decisionChunk]decision
}

// decisionLog is a ring of the last maxDecisions outcomes, allocated as it
// first fills: chunk 0's slots in a slice that starts at four and doubles, so
// an item that coordinates little pays for little, then a chunk at a time,
// never more than the bound. A chunk is overwritten one slot at a time, so
// once the ring has wrapped the one being overwritten still holds the end of
// its previous lap, whose base the table keeps past the last chunk.
type decisionLog struct {
	head   []uint32             // chunk 0's slots
	chunks []decisionChunkEntry // one per chunk reached, and chunks[decisionChunks] once wrapped
	n      int                  // records ever written; record k lives in slot k % maxDecisions
}

const (
	decisionChunk  = 128 // slots; divides maxDecisions
	decisionChunks = maxDecisions / decisionChunk
	packedBytes    = decisionChunk * 4
	wideBytes      = decisionChunk * int(unsafe.Sizeof(decision{}))
	entryBytes     = int(unsafe.Sizeof(decisionChunkEntry{}))
)

// record logs d and returns the bytes the ring allocated for it less those
// it let go: nonzero only when it reaches a chunk or a chunk widens.
func (l *decisionLog) record(d decision) (grown int) {
	w := l.n % maxDecisions
	c, i := w/decisionChunk, w%decisionChunk
	if i == 0 {
		grown = l.startLap(c, d.seq)
	}
	if l.n < decisionChunk && l.n == len(l.head) && l.chunks[0].wide == nil {
		head := make([]uint32, max(4, 2*l.n))
		grown += 4 * (len(head) - copy(head, l.head))
		l.head = head
	}
	e := &l.chunks[c]
	if s, ok := e.pack(d); ok && e.wide == nil {
		l.packed(c)[i] = s
	} else {
		if e.wide == nil {
			grown += l.widen(c)
		}
		e.wide[i] = d
	}
	l.n++
	return grown
}

// startLap bases chunk c's next lap on its first record. On the ring's first
// lap it allocates the chunk; on a later one the base of the lap it starts to
// overwrite moves past the last chunk, to an entry added at the first wrap.
func (l *decisionLog) startLap(c int, seq uint64) (grown int) {
	if l.n <= maxDecisions {
		if len(l.chunks) == cap(l.chunks) {
			table := make([]decisionChunkEntry, len(l.chunks), min(max(1, 2*cap(l.chunks)), decisionChunks+1))
			grown = entryBytes * (cap(table) - copy(table, l.chunks))
			l.chunks = table
		}
		l.chunks = append(l.chunks, decisionChunkEntry{})
	}
	if l.n >= maxDecisions {
		l.chunks[decisionChunks].decisionBase = l.chunks[c].decisionBase
	} else if c > 0 {
		l.chunks[c].slots = new([decisionChunk]uint32)
		grown += packedBytes
	}
	l.chunks[c].decisionBase = decisionBase{seq: seq}
	return grown
}

// packed returns chunk c's slots; c must not be wide.
func (l *decisionLog) packed(c int) []uint32 {
	if c == 0 {
		return l.head
	}
	return l.chunks[c].slots[:]
}

// base returns the base slot i of chunk c was packed against: the chunk's,
// unless that slot is one the current lap has not yet reached.
func (l *decisionLog) base(c, i int) decisionBase {
	if w := l.n % maxDecisions; l.n > maxDecisions && c == w/decisionChunk && i >= w%decisionChunk && w%decisionChunk != 0 {
		return l.chunks[decisionChunks].decisionBase
	}
	return l.chunks[c].decisionBase
}

// widen unpacks chunk c for a record that does not fit its base.
func (l *decisionLog) widen(c int) int {
	e, s := &l.chunks[c], l.packed(c)
	e.wide = new([decisionChunk]decision)
	for i := range s {
		e.wide[i] = l.base(c, i).unpack(s[i])
	}
	if e.slots = nil; c == 0 {
		l.head = nil
	}
	return wideBytes - 4*len(s)
}

// lookup scans newest first, so the latest record for a sequence number
// wins (an abort logged on a round's failure, then the commit of a later
// round of the same operation). Packed slots are compared with seq packed
// against their base, and not at all when seq is out of the base's reach.
func (l *decisionLog) lookup(seq uint64) (decision, bool) {
	for end, left := l.n%maxDecisions, min(l.n, maxDecisions); left > 0; {
		if end == 0 {
			end = maxDecisions
		}
		c := (end - 1) / decisionChunk
		from, to := max(0, end-left-c*decisionChunk), end-c*decisionChunk
		left, end = left-(to-from), c*decisionChunk+from
		if wide := l.chunks[c].wide; wide != nil {
			for i := to - 1; i >= from; i-- {
				if wide[i].seq == seq {
					return wide[i], true
				}
			}
		} else if b := l.base(c, from); seq-b.seq+slotSeqSpan < 2*slotSeqSpan {
			want, s := uint32(seq-b.seq)<<1&slotSeqMask, l.packed(c)
			for i := to - 1; i >= from; i-- {
				if s[i]&slotSeqMask == want {
					return b.unpack(s[i]), true
				}
			}
		}
	}
	return decision{}, false
}

// bytes returns what the ring has asked the allocator for and holds.
func (l *decisionLog) bytes() int {
	n := 4*cap(l.head) + entryBytes*cap(l.chunks)
	for _, e := range l.chunks {
		if e.slots != nil {
			n += packedBytes
		}
		if e.wide != nil {
			n += wideBytes
		}
	}
	return n
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

// record logs d; replica_decision_bytes follows the rings' allocations.
func (it *Item) record(d decision) {
	it.decMu.Lock()
	grown := it.decisions.record(d)
	it.decMu.Unlock()
	if grown != 0 {
		it.node.metrics.decisionBytes.Add(int64(grown))
	}
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
