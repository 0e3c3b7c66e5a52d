package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// OpID identifies one protocol operation (a read, write, propagation or
// epoch check) across the cluster: the coordinator's node plus a
// coordinator-local sequence number. The zero OpID is reserved.
type OpID struct {
	Coordinator nodeset.ID
	Seq         uint64
}

func (op OpID) String() string {
	return fmt.Sprintf("%v#%d", op.Coordinator, op.Seq)
}

// IsZero reports whether op is the reserved zero value.
func (op OpID) IsZero() bool { return op == OpID{} }

// rank scrambles op through the splitmix64 finalizer. Ranks decide
// conflicts (see Older) and must not follow the sequence numbers: a
// coordinator that keeps losing mints a fresh OpID per attempt, and under a
// plain (Seq, Coordinator) order each attempt would make it younger still.
func (op OpID) rank() uint64 {
	x := uint64(op.Coordinator)<<32 ^ op.Seq
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Older reports whether op precedes than in the conflict order: a total
// order over OpIDs that is a function of the two IDs alone, so every
// replica decides every conflict between two operations the same way.
func (op OpID) Older(than OpID) bool {
	if ra, rb := op.rank(), than.rank(); ra != rb {
		return ra < rb
	}
	if op.Seq != than.Seq {
		return op.Seq < than.Seq
	}
	return op.Coordinator < than.Coordinator
}

// lockMode distinguishes shared (read) from exclusive (write) holds.
type lockMode int

const (
	lockShared lockMode = iota
	lockExclusive
)

// holder is stored by value in the holders map: steady-state acquire and
// release then reuse map bucket cells instead of allocating a fresh holder
// per acquisition (see TestLockTableDoesNotAllocate).
type holder struct {
	mode     lockMode
	deadline time.Time // lease expiry; zero when pinned or leases disabled
	pinned   bool      // pinned holders (prepared 2PC participants) never expire
	ordered  bool      // acquired through acquireOrdered
}

type waiter struct {
	op        OpID
	mode      lockMode
	ordered   bool // queued through acquireOrdered
	upgrade   bool // op already holds shared and wants exclusive
	cancelled bool
	ready     chan struct{} // closed when granted
}

// errLockRefused is acquireOrdered's answer to a request that lost the
// conflict order; the OpID returned beside it names the winner.
var errLockRefused = errors.New("replica: lock refused, an older operation is ahead")

// errLockBusy is acquireBehindReaders' answer when a writer holds the lock
// or anybody is queued for it.
var errLockBusy = errors.New("replica: lock busy, a writer holds it or is queued")

// waitPolicy is what an acquisition does when it cannot be granted on
// arrival.
type waitPolicy int

const (
	waitPlain   waitPolicy = iota // queue (acquire)
	waitOrdered                   // queue unless an older ordered operation is ahead (acquireOrdered)
	waitReaders                   // queue behind shared holders only (acquireBehindReaders)
)

// itemLock is the per-replica lock of the paper's protocols. Reads take it
// shared, writes and epoch checks exclusive. Acquisition blocks until the
// lock is granted or the context ends, and is FIFO-fair: a steady stream of
// propagation offers cannot starve a queued write request.
//
// Operations that lock several replicas at once (LockRequest, LockPrepare)
// acquire through acquireOrdered, which is wait-die over OpID.Older: such a
// request waits only for younger ordered operations: if it cannot be
// granted on arrival and an older one holds the lock or is queued, it is
// refused at once (the queue is FIFO: whoever joins it waits for everyone
// ahead, and for the holders they wait for). Every wait between two
// multi-replica operations then runs from older to younger on every
// replica alike, so no cycle can form and two coordinators that each won
// part of an overlapping quorum are untied in one round trip instead of by
// CallTimeout. Operations that hold this one lock and wait nowhere else
// meanwhile (ReadSnap, a propagation offer, ApplyDirect) are exempt on both
// sides: nothing waits for them elsewhere. ReadSnap and the offer use plain
// acquire; ApplyDirect, which nobody waits for at all, uses
// acquireBehindReaders.
//
// Lock holds acquired in the request phase carry a lease: if the
// coordinator disappears before preparing (lost reply, coordinator crash),
// the hold lazily expires once the lease passes, so a lost message cannot
// wedge the replica forever. Preparing a 2PC action pins the hold — a
// prepared participant must block until the coordinator resolves the
// transaction (the classic 2PC window the paper inherits from [2]).
type itemLock struct {
	mu      sync.Mutex
	holders map[OpID]holder
	waiters []*waiter
	lease   time.Duration

	// Obs counters (nil — no-op — unless attachMetrics ran): acquisitions
	// granted, acquisitions denied (caller's context ended while queued),
	// ordered acquisitions refused at once, and holds dropped by lease
	// expiry.
	granted *obs.Counter
	denied  *obs.Counter
	refused *obs.Counter
	expired *obs.Counter
}

func newItemLock(lease time.Duration) *itemLock {
	return &itemLock{holders: make(map[OpID]holder), lease: lease}
}

// attachMetrics resolves the lock's counters from r (a no-op on nil).
// Called once at item construction, before the lock sees traffic.
func (l *itemLock) attachMetrics(r *obs.Registry) {
	l.granted = r.Counter("replica_lock_granted_total")
	l.denied = r.Counter("replica_lock_denied_total")
	l.refused = r.Counter("replica_lock_refused_total")
	l.expired = r.Counter("replica_lock_expired_total")
}

func (l *itemLock) newDeadline() time.Time {
	if l.lease <= 0 {
		return time.Time{}
	}
	return time.Now().Add(l.lease)
}

// expireLocked drops unpinned holders whose lease has passed. Caller holds mu.
func (l *itemLock) expireLocked(now time.Time) {
	for op, h := range l.holders {
		if !h.pinned && !h.deadline.IsZero() && now.After(h.deadline) {
			delete(l.holders, op)
			l.expired.Inc()
		}
	}
}

// nextExpiryLocked returns the earliest lease deadline among current
// holders, or zero if none applies. Caller holds mu.
func (l *itemLock) nextExpiryLocked() time.Time {
	var min time.Time
	for _, h := range l.holders {
		if h.pinned || h.deadline.IsZero() {
			continue
		}
		if min.IsZero() || h.deadline.Before(min) {
			min = h.deadline
		}
	}
	return min
}

// grantableLocked reports whether op could hold in mode alongside the
// current holders. Caller holds mu.
func (l *itemLock) grantableLocked(op OpID, mode lockMode) bool {
	for other, h := range l.holders {
		if other == op {
			continue
		}
		if mode == lockExclusive || h.mode == lockExclusive {
			return false
		}
	}
	return true
}

// dispatchLocked grants queued waiters in FIFO order: the front waiter is
// granted when compatible with the holders; consecutive shared waiters are
// granted together. Caller holds mu.
func (l *itemLock) dispatchLocked() {
	l.expireLocked(time.Now())
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if w.cancelled {
			l.waiters = l.waiters[1:]
			continue
		}
		if w.upgrade {
			// Upgrade: wait until op is the only holder.
			if len(l.holders) == 1 {
				if h, ok := l.holders[w.op]; ok {
					h.mode = lockExclusive
					h.deadline = l.newDeadline()
					h.ordered = h.ordered || w.ordered
					l.holders[w.op] = h
					l.waiters = l.waiters[1:]
					close(w.ready)
					continue
				}
			}
			// The upgrading op lost its hold (lease expiry): treat as a
			// fresh exclusive acquisition.
			if _, ok := l.holders[w.op]; !ok {
				w.upgrade = false
				continue
			}
			return
		}
		if !l.grantableLocked(w.op, w.mode) {
			return
		}
		l.holders[w.op] = holder{mode: w.mode, deadline: l.newDeadline(), ordered: w.ordered}
		l.waiters = l.waiters[1:]
		close(w.ready)
		// After an exclusive grant nothing else fits; for shared grants the
		// loop continues and admits following shared waiters.
		if w.mode == lockExclusive {
			return
		}
	}
}

// olderAheadLocked returns an ordered operation older than op that op, having
// to wait, would wait for — any holder, any queued waiter — or the zero OpID
// if there is none. Every holder counts, compatible mode or not: a request
// that cannot be granted on arrival waits either for a conflicting holder
// (an exclusive one is the only holder; an exclusive request conflicts with
// all) or, the queue being FIFO, behind a waiter that does — such as the
// plain exclusive waiter of a propagation offer or a write-through, which
// the order itself does not see. Caller holds mu.
func (l *itemLock) olderAheadLocked(op OpID) OpID {
	for other, h := range l.holders {
		if h.ordered && other != op && other.Older(op) {
			return other
		}
	}
	for _, w := range l.waiters {
		if w.ordered && !w.cancelled && w.op != op && w.op.Older(op) {
			return w.op
		}
	}
	return OpID{}
}

// writerAheadLocked reports whether an exclusive holder or any queued
// waiter stands before a new request. Caller holds mu.
func (l *itemLock) writerAheadLocked() bool {
	for _, w := range l.waiters {
		if !w.cancelled {
			return true
		}
	}
	for _, h := range l.holders {
		if h.mode == lockExclusive {
			return true
		}
	}
	return false
}

// acquire blocks until the lock is granted to op or ctx ends. Re-acquiring
// by the same op succeeds immediately (refreshing the lease) and upgrades
// shared to exclusive if requested — the paper's HeavyProcedure re-polls
// nodes already locked by the same operation. It is the form for
// operations that hold no other replica's lock meanwhile.
func (l *itemLock) acquire(ctx context.Context, op OpID, mode lockMode) error {
	_, err := l.doAcquire(ctx, op, mode, waitPlain)
	return err
}

// acquireBehindReaders is the exclusive acquire of a direct-apply, which is
// best-effort and usually one-way: the sender's deadline does not reach it,
// and on an inline transport the sender's goroutine runs it. It waits only
// for shared holders, whose holds are never pinned and end with the read or
// the lease. If a writer holds the lock or anybody is queued it returns
// errLockBusy at once: a write's hold may be a prepared participant's, which
// lasts until its coordinator is heard from. If the write ahead goes on to
// commit it finds this replica behind and marks it stale whether or not the
// push waited; if it gives up (refused elsewhere), the replica stays one
// version behind until a quorum draws it — the price of never waiting on
// another coordinator.
func (l *itemLock) acquireBehindReaders(ctx context.Context, op OpID) error {
	_, err := l.doAcquire(ctx, op, lockExclusive, waitReaders)
	return err
}

// acquireOrdered is acquire for an operation that locks several replicas
// at once. Instead of queueing behind an older ordered operation it
// returns that operation and errLockRefused, with nothing held or queued.
func (l *itemLock) acquireOrdered(ctx context.Context, op OpID, mode lockMode) (OpID, error) {
	return l.doAcquire(ctx, op, mode, waitOrdered)
}

func (l *itemLock) doAcquire(ctx context.Context, op OpID, mode lockMode, policy waitPolicy) (OpID, error) {
	ordered := policy == waitOrdered
	if op.IsZero() {
		return OpID{}, fmt.Errorf("replica: zero OpID cannot lock")
	}
	l.mu.Lock()
	l.expireLocked(time.Now())
	h, held := l.holders[op]
	if held && (mode != lockExclusive || h.mode == lockExclusive) {
		h.deadline = l.newDeadline()
		l.holders[op] = h
		l.mu.Unlock()
		l.granted.Inc()
		return OpID{}, nil
	}
	// A fresh acquisition, or (held) a shared-to-exclusive upgrade.
	if (held || len(l.waiters) == 0) && l.grantableLocked(op, mode) {
		l.holders[op] = holder{mode: mode, deadline: l.newDeadline(), pinned: h.pinned, ordered: ordered || h.ordered}
		l.mu.Unlock()
		l.granted.Inc()
		return OpID{}, nil
	}
	switch policy {
	case waitOrdered:
		if by := l.olderAheadLocked(op); !by.IsZero() {
			l.mu.Unlock()
			l.refused.Inc()
			return by, errLockRefused
		}
	case waitReaders:
		if l.writerAheadLocked() {
			l.mu.Unlock()
			return OpID{}, errLockBusy
		}
	}
	err := l.waitLocked(ctx, &waiter{op: op, mode: mode, ordered: ordered, upgrade: held, ready: make(chan struct{})})
	if err != nil {
		l.denied.Inc()
	} else {
		l.granted.Inc()
	}
	return OpID{}, err
}

// waitLocked enqueues w and blocks until it is granted or ctx ends. It is
// entered with mu held and returns with mu released.
func (l *itemLock) waitLocked(ctx context.Context, w *waiter) error {
	l.waiters = append(l.waiters, w)
	l.dispatchLocked()
	expiry := l.nextExpiryLocked()
	l.mu.Unlock()

	var timer *time.Timer
	var timeC <-chan time.Time
	armTimer := func(at time.Time) {
		if at.IsZero() {
			return
		}
		d := time.Until(at)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		timer = time.NewTimer(d)
		timeC = timer.C
	}
	armTimer(expiry)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	for {
		select {
		case <-w.ready:
			return nil
		case <-ctx.Done():
			l.mu.Lock()
			select {
			case <-w.ready:
				// Granted concurrently with cancellation: keep the grant;
				// the coordinator's abort will release it.
				l.mu.Unlock()
				return nil
			default:
			}
			w.cancelled = true
			l.dispatchLocked()
			l.mu.Unlock()
			return ctx.Err()
		case <-timeC:
			// A lease may have expired: re-dispatch and re-arm.
			if timer != nil {
				timer.Stop()
				timer, timeC = nil, nil
			}
			l.mu.Lock()
			l.dispatchLocked()
			expiry := l.nextExpiryLocked()
			l.mu.Unlock()
			armTimer(expiry)
			if timeC == nil {
				// No leases pending: fall back to a coarse poll so an
				// unexpected state cannot hang us forever.
				armTimer(time.Now().Add(50 * time.Millisecond))
			}
		}
	}
}

// pin marks op's hold as a prepared 2PC participant: the lease stops
// applying. Returns false if op no longer holds the lock.
func (l *itemLock) pin(op OpID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(time.Now())
	h, ok := l.holders[op]
	if !ok {
		return false
	}
	h.pinned = true
	h.deadline = time.Time{}
	l.holders[op] = h
	return true
}

// release drops op's hold. Releasing a non-held lock is a no-op, so
// duplicate aborts are harmless.
func (l *itemLock) release(op OpID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.holders[op]; ok {
		delete(l.holders, op)
	}
	l.dispatchLocked()
}

// resetHolders drops every current hold (volatile lock state lost on
// amnesia) and lets queued waiters acquire against the fresh replica.
func (l *itemLock) resetHolders() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holders = make(map[OpID]holder)
	l.dispatchLocked()
}

// heldBy reports whether op currently holds the lock in at least the given
// mode.
func (l *itemLock) heldBy(op OpID, mode lockMode) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(time.Now())
	h, ok := l.holders[op]
	return ok && (mode == lockShared || h.mode == lockExclusive)
}

// holderCount returns the number of current holders (tests).
func (l *itemLock) holderCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(time.Now())
	return len(l.holders)
}
