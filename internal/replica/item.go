package replica

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// Config tunes a replica's timing behavior. The zero value selects the
// defaults below.
type Config struct {
	// LockLease bounds how long an unprepared lock hold survives without
	// the coordinator completing the operation (lost replies, coordinator
	// crashes). Prepared 2PC participants are exempt. Default 2s.
	LockLease time.Duration
	// MaxLog caps the update-log length kept for propagation; beyond it,
	// propagation falls back to snapshots. Default 1024; negative means
	// unbounded.
	MaxLog int
	// PropagationRetry is the pause before re-offering propagation after
	// "already-recovering" or a failed call (the paper's pause(some-time)).
	// Default 25ms.
	PropagationRetry time.Duration
	// PropagationCallTimeout bounds each propagation RPC. Default 1s.
	PropagationCallTimeout time.Duration
	// ResolveInterval is how often the 2PC termination resolver scans for
	// staged actions abandoned by their coordinator. Default 500ms.
	ResolveInterval time.Duration
	// ResolveAfter is how old a staged action must be before the resolver
	// queries its coordinator for the decision. Default 2x LockLease.
	ResolveAfter time.Duration
	// Obs is the observability registry replica metrics register into.
	// Nil (obs.Nop) disables them at no cost.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.LockLease == 0 {
		c.LockLease = 2 * time.Second
	}
	if c.MaxLog == 0 {
		c.MaxLog = 1024
	}
	if c.PropagationRetry == 0 {
		c.PropagationRetry = 25 * time.Millisecond
	}
	if c.PropagationCallTimeout == 0 {
		c.PropagationCallTimeout = time.Second
	}
	if c.ResolveInterval == 0 {
		c.ResolveInterval = 500 * time.Millisecond
	}
	if c.ResolveAfter == 0 {
		c.ResolveAfter = 2 * c.LockLease
	}
	return c
}

type stagedKind uint8

const (
	stagedUpdate stagedKind = iota
	stagedReplace
	stagedStale
	stagedEpoch
)

// staged is a prepared-but-uncommitted 2PC action. An item holds at most
// one, inline: staging takes the exclusive lock pinned, so no other
// operation can prepare here until this one commits or aborts (a pinned
// hold never expires; Amnesia drops both). The fields serve several kinds.
type staged struct {
	op         OpID     // zero: nothing staged
	preparedAt int64    // Unix nanoseconds: a time.Time would move the Item up a size class
	update     Update   // stagedUpdate; stagedReplace: the new value, at offset 0
	more       []Update // stagedUpdate: the rest of a run, applied in order after update
	// version is what a commit produces: the (first) new version, the
	// desired version a stale-marking records, or the epoch number.
	version uint64
	set     nodeset.Set // the stale set propagation starts toward; stagedEpoch: the epoch list
	good    nodeset.Set
	goodVer uint64 // stagedEpoch: the maximum version of the epoch change
	kind    stagedKind
	// speculative marks an action staged from a LockPrepare prediction
	// rather than a coordinator-endorsed prepare. If the reply carrying
	// the staging was lost, the coordinator may have decided the write
	// without this participant — possibly at a different version — so the
	// termination resolver must version-gate the decision query (see
	// DecisionQuery.NewVersion).
	speculative bool
}

// Item is one replica of one data item living on one node. It owns the
// replica's protocol state — version number, desired version number,
// stale-data flag, epoch number and epoch list (paper, Section 4) — plus
// the versioned store, the replica lock, staged 2PC actions, and the
// propagation worker that pushes updates to stale replicas.
//
// Concurrency is striped so independent operations do not serialize behind
// one mutex: the lock table has its own mutex (lock.go), the coordinator
// decision log its own (decision.go), the propagation queue its own
// (propagate.go). mu protects the store, the protocol flags and the staged
// action, and State reads them under it.
type Item struct {
	name string
	// node is the hosting node. An item reads only what NewNode set and
	// nothing writes afterwards — self, net, cfg, metrics, lockEnv, closed
	// — so what a node owns once is paid for once, not once per item.
	node *Node

	// initial is the item's configured version-0 value. It is deployment
	// configuration, not replicated state: a rebuilt process re-supplies it
	// to AddItem, so Amnesia may reset the store onto it — which is what
	// makes update replay from version 0 rebuild the correct value (see
	// amnesia.go). It is the caller's slice, shared with every item given the
	// same one and never written: the store holds its own copy.
	initial []byte

	mu         sync.Mutex
	store      Store
	staleSince time.Time // when stale last became true (staleness histogram)
	desired    uint64
	// The epoch and good sets are never mutated in place: every change
	// installs a freshly built set, so a StateReply may share them.
	epoch    nodeset.Set
	epochNum uint64
	good     nodeset.Set // recorded good list (safety-threshold extension)
	goodVer  uint64      // version the good list corresponds to
	staged   staged
	propOp   OpID // operation currently allowed to propagate into this replica
	stale    bool
	watched  bool // on the node's termination walk (see stageLocked)
	// recovering marks a replica that lost its stable state (amnesia.go);
	// it is excluded from quorums until an epoch change readmits it.
	recovering bool
	// propRunning is propMu's, not mu's; it sits here because four flags and
	// the payload in one word instead of five keep the Item in its size class.
	propRunning bool
	payload     int32 // value length last added to replica_payload_bytes

	// Coordinator decision log for 2PC termination (see decision.go),
	// striped off mu so termination queries and decision writes do not
	// contend with the data path.
	decMu     sync.Mutex
	decisions decisionLog

	opSeq atomic.Uint64

	propMu  sync.Mutex
	pending nodeset.Set
	propGen uint64 // bumped by every enqueuePropagation (see propagateWorker)

	lock itemLock
}

// newItem builds node n's replica of an item: the Item and its copy of the
// value, and nothing else. Whatever does not differ between the items of a
// node is n's.
func newItem(n *Node, name string, members nodeset.Set, initial []byte) *Item {
	it := &Item{
		name:    name,
		node:    n,
		initial: initial,
		store:   NewStore(initial, n.cfg.MaxLog),
		epoch:   members.Clone(),
		lock:    itemLock{lockEnv: n.lockEnv},
	}
	n.metrics.items.Add(1)
	it.notePayloadLocked() // no concurrent access yet; mu not needed
	return it
}

// stageLocked records st, a prepared action of st.op, replacing whatever
// st.op had staged before, and acknowledges it; another operation's action is
// refused, never overwritten (see staged). Called with mu held. The first
// staging puts the item on its node's termination walk (Node.watchStaged),
// which keeps it until a sweep finds nothing staged — so an item with
// something staged is always on the walk, a busy item pays for it one flag
// test per staging (the node's lock and set are touched once per sweep
// interval, not once per write), and a cold item carries no timer or
// goroutine of its own. now is the handler's reading of the clock on
// arrival: a prepare that queued for its lock counts as prepared from when it
// was asked, which only makes the resolver look a little sooner.
func (it *Item) stageLocked(now time.Time, st *staged) transport.Message {
	if !it.staged.op.IsZero() && it.staged.op != st.op {
		return otherStaged
	}
	if !it.watched {
		it.watched = true
		it.node.watchStaged(it)
	}
	it.staged = *st
	it.staged.preparedAt = now.UnixNano()
	return ackOK
}

// Name returns the data item's name.
func (it *Item) Name() string { return it.name }

// Self returns the hosting node's ID.
func (it *Item) Self() nodeset.ID { return it.node.self }

// NextOp mints a fresh operation ID coordinated by this node.
func (it *Item) NextOp() OpID {
	return OpID{Coordinator: it.node.self, Seq: it.opSeq.Add(1)}
}

// AdvanceOpSeq moves the operation-ID sequence forward by at least delta.
// A node process that restarts with fresh state (crash amnesia) would
// otherwise mint OpIDs it already used before the crash, and surviving
// replicas' decision logs and lock tables would confuse the new operations
// with the old ones; the restarting host advances the sequence past any
// value the previous incarnation could have reached (e.g. by a wall-clock
// reading) before coordinating operations.
func (it *Item) AdvanceOpSeq(delta uint64) {
	it.opSeq.Add(delta)
}

// State returns the replica's current protocol state, read under mu. The
// sets inside the reply are shared immutable values; callers must not
// mutate them in place (nodeset's non-pointer methods all copy).
func (it *Item) State() (st StateReply) {
	it.mu.Lock()
	it.stateLocked(&st)
	it.mu.Unlock()
	return st
}

// stateLocked writes the replica's state into st. Caller holds mu.
func (it *Item) stateLocked(st *StateReply) {
	*st = StateReply{
		Node:       it.node.self,
		Version:    it.store.Version(),
		Desired:    it.desired,
		Stale:      it.stale,
		Epoch:      it.epoch,
		EpochNum:   it.epochNum,
		Good:       it.good,
		GoodVer:    it.goodVer,
		Recovering: it.recovering,
	}
}

// notePayloadLocked makes replica_payload_bytes follow the value's length.
// Every change of the value passes through here — when it was created, grown
// or replaced, not per message. Callers hold mu (except item construction).
func (it *Item) notePayloadLocked() {
	if n := int32(it.store.Len()); n != it.payload {
		it.node.metrics.payloadBytes.Add(int64(n - it.payload))
		it.payload = n
	}
}

// Value returns a copy of the replica's value and its version. It reflects
// whatever this replica holds, current or not; protocol-level reads go
// through a coordinator.
func (it *Item) Value() ([]byte, uint64) {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.store.Snapshot()
}

// replies is what a replica keeps in a slot its sender lent
// (transport.SlotOf): one of each reply that carries its state, lock's State
// doubling as the StateReply.
type replies struct {
	lock    LockPrepareReply
	snap    SnapReply
	refused LockRefused
}

func (r *replies) state() *StateReply        { return &r.lock.State }
func (r *replies) locked() *LockPrepareReply { return &r.lock }
func (r *replies) snapshot() *SnapReply      { return &r.snap }
func (r *replies) refusal() *LockRefused     { return &r.refused }

// answer returns the reply, of those at picks, that a handler called under
// ctx answers into: its sender's slot's, or its own if the sender lent none.
func answer[T any](ctx context.Context, at func(*replies) *T) *T {
	s := transport.SlotOf(ctx)
	if s == nil {
		return new(T)
	}
	r, _ := (*s).(*replies)
	if r == nil {
		r = new(replies)
		*s = r
	}
	return at(r)
}

// Handle serves msg outside any round, for callers that drive one replica
// directly: it answers values where the network's handler answers pointers
// into its sender's slot, and never into a slot ctx carries.
func (it *Item) Handle(ctx context.Context, from nodeset.ID, msg any) (transport.Message, error) {
	if transport.SlotOf(ctx) != nil {
		ctx = new(transport.Leg).Lend(ctx)
	}
	reply, err := it.serve(ctx, from, msg)
	switch r := reply.(type) {
	case *StateReply:
		return *r, err
	case *LockPrepareReply:
		return *r, err
	case *LockRefused:
		return *r, err
	case *SnapReply:
		return *r, err
	}
	return reply, err
}

// serve processes one protocol message addressed to this item. A
// coordinator sends its fused requests as pointers, the wire decodes values.
func (it *Item) serve(ctx context.Context, from nodeset.ID, msg any) (transport.Message, error) {
	switch m := msg.(type) {
	case StateQuery:
		r := answer(ctx, (*replies).state)
		*r = it.State()
		return r, nil
	case LockRequest:
		return it.handleLock(ctx, m)
	case *LockPrepare:
		return it.handleLockPrepare(ctx, m)
	case LockPrepare:
		return it.handleLockPrepare(ctx, &m)
	case *ReadSnap:
		return it.handleReadSnap(ctx, m)
	case ReadSnap:
		return it.handleReadSnap(ctx, &m)
	case FetchValue:
		return it.handleFetch(transport.Now(ctx), m)
	case PrepareUpdate:
		return it.handlePrepareUpdate(transport.Now(ctx), m)
	case PrepareReplace:
		return it.handlePrepareReplace(transport.Now(ctx), m)
	case PrepareStale:
		return it.handlePrepareStale(transport.Now(ctx), m)
	case PrepareEpoch:
		return it.handlePrepareEpoch(transport.Now(ctx), m)
	case Commit:
		return it.handleCommit(m)
	case Abort:
		return it.handleAbort(m)
	case ApplyDirect:
		return it.handleApplyDirect(ctx, m)
	case PropagationOffer:
		return it.handlePropagationOffer(ctx, m)
	case PropagationData:
		return it.handlePropagationData(transport.Now(ctx), m)
	case DecisionQuery:
		return it.handleDecisionQuery(m)
	default:
		return nil, fmt.Errorf("replica %v/%s: unknown message %T", it.node.self, it.name, msg)
	}
}

func (it *Item) handleLock(ctx context.Context, m LockRequest) (transport.Message, error) {
	mode := lockShared
	if m.Mode == LockWrite {
		mode = lockExclusive
	}
	if refusal, err := it.lockOrdered(ctx, transport.Now(ctx), m.Op, mode, false); refusal != nil || err != nil {
		return refusal, err
	}
	r := answer(ctx, (*replies).state)
	*r = it.State()
	return r, nil
}

// lockOrdered takes the replica lock for a multi-replica operation. A nil
// reply and nil error mean op holds it; otherwise the pair is the handler's
// answer — LockRefused when an older operation is ahead, an error when the
// context ended in the queue. pin is acquireOrdered's.
func (it *Item) lockOrdered(ctx context.Context, now time.Time, op OpID, mode lockMode, pin bool) (transport.Message, error) {
	switch by, err := it.lock.acquireOrdered(ctx, now, op, mode, pin); err {
	case nil:
		return nil, nil
	case errLockRefused:
		r := answer(ctx, (*replies).refusal)
		*r = LockRefused{State: it.State(), By: by}
		return r, nil
	default:
		return nil, fmt.Errorf("replica %v/%s: lock for %v: %w", it.node.self, it.name, op, err)
	}
}

// handleLockPrepare is handleLock's fused form for writes: after
// acquiring the exclusive lock it checks the coordinator's prediction
// against the live state and, on a match, stages the update immediately —
// the combined effect of a LockRequest and a PrepareUpdate in one round
// trip. On a mismatch it degrades to a plain lock grant: the state reply
// lets the coordinator classify and run the normal prepare, which
// overwrites this entry at the replicas it covers. The lock is taken pinned,
// as the staging will need it, in the same visit to the lock table; the rare
// mismatch goes back to unpin it.
func (it *Item) handleLockPrepare(ctx context.Context, m *LockPrepare) (transport.Message, error) {
	now := transport.Now(ctx)
	if refusal, err := it.lockOrdered(ctx, now, m.Op, lockExclusive, true); refusal != nil || err != nil {
		return refusal, err
	}
	r := answer(ctx, (*replies).locked)
	prepared := false
	it.mu.Lock()
	if m.Update.Validate() == nil && !it.recovering && !it.stale && it.store.Version()+1 == m.NewVersion {
		prepared = ackOK == it.stageLocked(now, &staged{
			op:          m.Op,
			kind:        stagedUpdate,
			speculative: true,
			update:      m.Update.clone(),
			version:     m.NewVersion,
			good:        m.GoodSet.Clone(),
			goodVer:     m.NewVersion,
		})
	}
	it.stateLocked(&r.State)
	r.Prepared = prepared
	it.mu.Unlock()
	if !prepared {
		it.lock.unpin(now, m.Op)
	}
	return r, nil
}

// handleReadSnap serves a fused read: lock shared, snapshot state and
// value atomically, release, reply. The shared acquisition still queues
// behind a prepared write's pinned exclusive hold — the snapshot cannot
// observe a committed-but-unapplied write as absent — but nothing stays
// locked after the reply, so the read has no release round. The value goes
// into the slot's buffer, kept from round to round.
func (it *Item) handleReadSnap(ctx context.Context, m *ReadSnap) (transport.Message, error) {
	if err := it.lock.acquire(ctx, transport.Now(ctx), m.Op, lockShared); err != nil {
		return nil, fmt.Errorf("replica %v/%s: lock for %v: %w", it.node.self, it.name, m.Op, err)
	}
	r := answer(ctx, (*replies).snapshot)
	it.mu.Lock()
	it.stateLocked(&r.State)
	r.Value = append(r.Value[:0], it.store.value...)
	it.mu.Unlock()
	it.lock.release(m.Op)
	return r, nil
}

func (it *Item) handleFetch(now time.Time, m FetchValue) (transport.Message, error) {
	if !it.lock.heldBy(now, m.Op, lockShared) {
		return nil, fmt.Errorf("replica %v/%s: fetch without lock by %v", it.node.self, it.name, m.Op)
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	value, version := it.store.Snapshot()
	return ValueReply{Value: value, Version: version}, nil
}

// notLockHolder refuses a prepare whose operation does not hold the lock
// exclusively: it never locked here, or its lease ran out.
var notLockHolder transport.Message = Ack{Reason: "not exclusive lock holder"}

// ackOK is the one positive acknowledgement, boxed once: a 3×3 write is
// answered with nine of them.
var ackOK transport.Message = Ack{OK: true}

// otherStaged refuses a prepare at an item where another operation's action
// is staged, which only an Amnesia racing a prepare leaves (see staged).
var otherStaged transport.Message = Ack{Reason: "another operation is staged"}

func (it *Item) handlePrepareUpdate(now time.Time, m PrepareUpdate) (transport.Message, error) {
	if err := m.Update.Validate(); err != nil {
		return Ack{Reason: err.Error()}, nil
	}
	for _, u := range m.More {
		if err := u.Validate(); err != nil {
			return Ack{Reason: err.Error()}, nil
		}
	}
	if !it.lock.pin(now, m.Op) {
		return notLockHolder, nil
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.recovering {
		return Ack{Reason: "replica is recovering from state loss"}, nil
	}
	if it.stale {
		return Ack{Reason: "replica is stale"}, nil
	}
	if it.store.Version()+1 != m.NewVersion {
		return Ack{Reason: fmt.Sprintf("version %d cannot advance to %d", it.store.Version(), m.NewVersion)}, nil
	}
	more := make([]Update, len(m.More))
	for i, u := range m.More {
		more[i] = u.clone()
	}
	return it.stageLocked(now, &staged{
		op:      m.Op,
		kind:    stagedUpdate,
		update:  m.Update.clone(),
		more:    more,
		version: m.NewVersion,
		set:     m.StaleSet.Clone(),
		good:    m.GoodSet.Clone(),
		goodVer: m.NewVersion + uint64(len(more)),
	}), nil
}

func (it *Item) handlePrepareReplace(now time.Time, m PrepareReplace) (transport.Message, error) {
	if !it.lock.pin(now, m.Op) {
		return notLockHolder, nil
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.recovering {
		return Ack{Reason: "replica is recovering from state loss"}, nil
	}
	if m.NewVersion <= it.store.Version() {
		return Ack{Reason: fmt.Sprintf("replace version %d not beyond %d", m.NewVersion, it.store.Version())}, nil
	}
	return it.stageLocked(now, &staged{
		op:      m.Op,
		kind:    stagedReplace,
		update:  Update{Data: m.Value}.clone(),
		version: m.NewVersion,
		set:     m.StaleSet.Clone(),
		good:    m.GoodSet.Clone(),
		goodVer: m.NewVersion,
	}), nil
}

func (it *Item) handlePrepareStale(now time.Time, m PrepareStale) (transport.Message, error) {
	if !it.lock.pin(now, m.Op) {
		return notLockHolder, nil
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.recovering {
		return Ack{Reason: "replica is recovering from state loss"}, nil
	}
	return it.stageLocked(now, &staged{op: m.Op, kind: stagedStale, version: m.Desired, good: m.GoodSet.Clone(), goodVer: m.Desired}), nil
}

func (it *Item) handlePrepareEpoch(now time.Time, m PrepareEpoch) (transport.Message, error) {
	if !it.lock.pin(now, m.Op) {
		return notLockHolder, nil
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if m.EpochNum <= it.epochNum {
		return Ack{Reason: fmt.Sprintf("epoch %d not newer than %d", m.EpochNum, it.epochNum)}, nil
	}
	if !m.Epoch.Contains(it.node.self) {
		return Ack{Reason: "node not a member of the proposed epoch"}, nil
	}
	return it.stageLocked(now, &staged{
		op:      m.Op,
		kind:    stagedEpoch,
		set:     m.Epoch.Clone(),
		version: m.EpochNum,
		good:    m.Good.Clone(),
		goodVer: m.MaxVersion,
	}), nil
}

func (it *Item) handleCommit(m Commit) (transport.Message, error) {
	it.mu.Lock()
	st := it.staged
	if st.op != m.Op || st.op.IsZero() {
		it.mu.Unlock()
		// Lock-only participant (e.g. a read): commit just releases.
		it.lock.release(m.Op)
		return ackOK, nil
	}
	it.staged = staged{}
	var propagateTo nodeset.Set
	switch st.kind {
	case stagedUpdate:
		if it.store.Version()+1 != st.version || it.stale {
			// Unreachable while the exclusive lock is held from prepare to
			// commit; refuse rather than corrupt the replica.
			it.mu.Unlock()
			it.lock.release(m.Op)
			return Ack{Reason: "staged update no longer applicable"}, nil
		}
		it.store.applyOwned(st.update)
		// Applying a run per update (not as one merged mutation) keeps the
		// update log per-version, so propagation toward a target at any
		// intermediate version still works.
		for _, u := range st.more {
			it.store.applyOwned(u)
		}
		it.clearStaleLocked()
		it.good = st.good
		it.goodVer = st.goodVer
		propagateTo = st.set
	case stagedReplace:
		it.store.InstallSnapshot(st.update.Data, st.version)
		it.clearStaleLocked()
		it.good = st.good
		it.goodVer = st.goodVer
		propagateTo = st.set
	case stagedStale:
		it.markStaleLocked(st.version)
		it.good = st.good
		it.goodVer = st.goodVer
	case stagedEpoch:
		it.epoch = st.set
		it.epochNum = st.version
		it.good = st.good
		it.goodVer = st.goodVer
		if it.recovering {
			it.node.metrics.readmitted.Inc()
		}
		it.recovering = false // an epoch change readmits an amnesiac replica
		it.node.metrics.epochInstalls.Inc()
		if st.good.Contains(it.node.self) {
			it.clearStaleLocked()
			propagateTo = st.set.Diff(st.good)
		} else {
			it.markStaleLocked(st.goodVer)
		}
	}
	it.node.metrics.commits.Inc()
	it.notePayloadLocked()
	it.mu.Unlock()
	it.lock.release(m.Op)
	if !propagateTo.Empty() {
		it.enqueuePropagation(propagateTo)
	}
	return ackOK, nil
}

// Refusals of a direct-apply, boxed once: a bystander that fell behind
// refuses every later push, and that path should cost no allocation.
var (
	directRecovering transport.Message = Ack{Reason: "replica is recovering from state loss"}
	directStale      transport.Message = Ack{Reason: "replica is stale"}
	directGap        transport.Message = Ack{Reason: "replica is not exactly one version behind"}
	directBusy       transport.Message = Ack{Reason: "replica is locked by a write"}
)

// handleApplyDirect serves the unsolicited write of Section 4.1 — the
// coordinator's one-way write-through to bystanders, and the synchronous
// safety-threshold extension: lock, verify the replica is current as of
// exactly the preceding version, apply, release. No separate permission or
// commit round is involved. The lock wait is short by construction
// (acquireBehindReaders): a replica a write is using refuses as busy.
func (it *Item) handleApplyDirect(ctx context.Context, m ApplyDirect) (transport.Message, error) {
	if err := m.Update.Validate(); err != nil {
		return Ack{Reason: err.Error()}, nil
	}
	for _, u := range m.More {
		if err := u.Validate(); err != nil {
			return Ack{Reason: err.Error()}, nil
		}
	}
	switch err := it.lock.acquireBehindReaders(ctx, transport.Now(ctx), m.Op); {
	case err == errLockBusy:
		it.node.metrics.pushBusy.Inc()
		return directBusy, nil
	case err != nil:
		return nil, fmt.Errorf("replica %v/%s: direct-apply lock: %w", it.node.self, it.name, err)
	}
	defer it.lock.release(m.Op)
	it.mu.Lock()
	defer it.mu.Unlock()
	switch {
	case it.recovering:
		it.node.metrics.pushRecovering.Inc()
		return directRecovering, nil
	case it.stale:
		it.node.metrics.pushStale.Inc()
		return directStale, nil
	case it.store.Version()+1 != m.NewVersion:
		it.node.metrics.pushGap.Inc()
		return directGap, nil
	}
	it.store.Apply(m.Update)
	for _, u := range m.More {
		it.store.Apply(u)
	}
	it.good = m.GoodSet.Clone()
	it.goodVer = it.store.Version()
	it.node.metrics.pushApplied.Inc()
	it.notePayloadLocked()
	return ackOK, nil
}

func (it *Item) handleAbort(m Abort) (transport.Message, error) {
	it.mu.Lock()
	if it.staged.op == m.Op {
		it.staged = staged{}
	}
	it.mu.Unlock()
	it.lock.release(m.Op)
	return ackOK, nil
}
