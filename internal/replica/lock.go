package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
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

// lockMode distinguishes shared (read) from exclusive (write) holds; the
// stronger mode is the larger value.
type lockMode int

const (
	lockShared lockMode = iota
	lockExclusive
)

// holder is one operation's hold. Holders live by value in a small slice —
// uncontended it has one writer or a few readers — so steady-state acquire
// and release reuse its cells and a scan of it is a handful of compares (see
// TestLockTableDoesNotAllocate).
type holder struct {
	op       OpID
	mode     lockMode
	deadline time.Time // lease expiry; zero when pinned or leases disabled
	pinned   bool      // pinned holders (prepared 2PC participants) never expire
	ordered  bool      // acquired through acquireOrdered
}

type waiter struct {
	op        OpID
	mode      lockMode
	ordered   bool // queued through acquireOrdered
	pin       bool // the grant is a prepared participant's: pinned from the start
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
//
// The lock does not read the clock for its callers: every entry point that
// judges or starts a lease takes now, the one reading its message handler
// made on arrival. Expiry is lazy and happens in whoever looks next — an
// acquire, a pin, heldBy — so a release that nobody waits for touches no
// clock at all. Only the two places with nobody to ask read it themselves:
// a release that hands the lock to a waiter, and the parked waiter's timer.
type itemLock struct {
	mu      sync.Mutex
	holders []holder
	waiters []*waiter
	*lockEnv
}

// lockEnv is what the locks of one node's replicas have in common, built
// once per node and never written afterwards: the lease, and the obs counters
// (nil — no-op — without a registry) of acquisitions granted, acquisitions
// that queued, acquisitions denied (caller's context ended while queued),
// ordered acquisitions refused at once, and holds dropped by lease expiry.
type lockEnv struct {
	lease   time.Duration
	granted *obs.Counter
	waited  *obs.Counter
	denied  *obs.Counter
	refused *obs.Counter
	expired *obs.Counter
}

func newLockEnv(lease time.Duration, r *obs.Registry) lockEnv {
	return lockEnv{
		lease:   lease,
		granted: r.Counter("replica_lock_granted_total"),
		waited:  r.Counter("replica_lock_waited_total"),
		denied:  r.Counter("replica_lock_denied_total"),
		refused: r.Counter("replica_lock_refused_total"),
		expired: r.Counter("replica_lock_expired_total"),
	}
}

// leaseFrom returns the expiry of a lease that starts at now: zero when
// leases are disabled.
func (l *itemLock) leaseFrom(now time.Time) time.Time {
	if l.lease <= 0 {
		return time.Time{}
	}
	return now.Add(l.lease)
}

// expireLocked drops unpinned holders whose lease has passed. Caller holds mu.
func (l *itemLock) expireLocked(now time.Time) {
	for i := 0; i < len(l.holders); {
		if h := l.holders[i]; !h.pinned && !h.deadline.IsZero() && now.After(h.deadline) {
			l.dropLocked(i)
			l.expired.Inc()
		} else {
			i++
		}
	}
}

// indexLocked returns op's position among the holders, or -1. Caller holds mu.
func (l *itemLock) indexLocked(op OpID) int {
	for i := range l.holders {
		if l.holders[i].op == op {
			return i
		}
	}
	return -1
}

// dropLocked removes holder i; the holders' order carries no meaning.
func (l *itemLock) dropLocked(i int) {
	last := len(l.holders) - 1
	l.holders[i] = l.holders[last]
	l.holders = l.holders[:last]
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

// grantableLocked reports whether an operation could hold in mode alongside
// the current holders other than itself (own is its position among them, or
// -1). Caller holds mu.
func (l *itemLock) grantableLocked(own int, mode lockMode) bool {
	for i, h := range l.holders {
		if i != own && (mode == lockExclusive || h.mode == lockExclusive) {
			return false
		}
	}
	return true
}

// grantLocked records h as granted at now: a new holder, or over the
// operation's earlier hold (own ≥ 0), which it never downgrades, unpins or
// takes out of the conflict order. Caller holds mu.
func (l *itemLock) grantLocked(now time.Time, own int, h holder) {
	if own >= 0 {
		prior := l.holders[own]
		h.mode = max(h.mode, prior.mode)
		h.pinned = h.pinned || prior.pinned
		h.ordered = h.ordered || prior.ordered
	}
	if !h.pinned {
		h.deadline = l.leaseFrom(now)
	}
	if own >= 0 {
		l.holders[own] = h
	} else {
		l.holders = append(l.holders, h)
	}
}

// dispatchLocked grants queued waiters in FIFO order: the front waiter is
// granted when compatible with the holders — for one that already holds
// shared and wants exclusive, when it is the only holder left — and
// consecutive shared waiters are granted together. Caller holds mu.
func (l *itemLock) dispatchLocked(now time.Time) {
	l.expireLocked(now)
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if w.cancelled {
			l.waiters = l.waiters[1:]
			continue
		}
		own := l.indexLocked(w.op)
		if !l.grantableLocked(own, w.mode) {
			return
		}
		l.grantLocked(now, own, holder{op: w.op, mode: w.mode, ordered: w.ordered, pinned: w.pin})
		l.waiters = l.waiters[1:]
		close(w.ready)
		// After an exclusive grant nothing else fits; after a shared one the
		// loop goes on and admits the shared waiters that follow.
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
	for _, h := range l.holders {
		if h.ordered && h.op != op && h.op.Older(op) {
			return h.op
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
func (l *itemLock) acquire(ctx context.Context, now time.Time, op OpID, mode lockMode) error {
	_, err := l.doAcquire(ctx, now, op, mode, waitPlain, false)
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
func (l *itemLock) acquireBehindReaders(ctx context.Context, now time.Time, op OpID) error {
	_, err := l.doAcquire(ctx, now, op, lockExclusive, waitReaders, false)
	return err
}

// acquireOrdered is acquire for an operation that locks several replicas
// at once. Instead of queueing behind an older ordered operation it
// returns that operation and errLockRefused, with nothing held or queued.
// With pin the grant is pinned from the start, the acquire and the pin of a
// LockPrepare in one visit; a caller that then stages nothing must unpin.
func (l *itemLock) acquireOrdered(ctx context.Context, now time.Time, op OpID, mode lockMode, pin bool) (OpID, error) {
	return l.doAcquire(ctx, now, op, mode, waitOrdered, pin)
}

func (l *itemLock) doAcquire(ctx context.Context, now time.Time, op OpID, mode lockMode, policy waitPolicy, pin bool) (OpID, error) {
	ordered := policy == waitOrdered
	if op.IsZero() {
		return OpID{}, fmt.Errorf("replica: zero OpID cannot lock")
	}
	l.mu.Lock()
	l.expireLocked(now)
	// A holder asking again — for the mode it has, or to upgrade shared to
	// exclusive — does not queue behind the waiters; a newcomer does.
	own := l.indexLocked(op)
	if (own >= 0 || len(l.waiters) == 0) && l.grantableLocked(own, mode) {
		l.grantLocked(now, own, holder{op: op, mode: mode, ordered: ordered, pinned: pin})
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
	// The one place a handler waits for another operation. Asked not to, it says
	// so having queued and counted nothing: run again, it is a first request.
	if transport.NoWait(ctx) {
		l.mu.Unlock()
		return OpID{}, transport.ErrWouldWait
	}
	l.waited.Inc()
	err := l.waitLocked(ctx, now, &waiter{op: op, mode: mode, ordered: ordered, pin: pin, ready: make(chan struct{})})
	if err != nil {
		l.denied.Inc()
	} else {
		l.granted.Inc()
	}
	return OpID{}, err
}

// coarsePoll is how often a parked waiter looks again when no lease is
// pending, so an unexpected state cannot hang it forever.
const coarsePoll = 50 * time.Millisecond

// waitLocked enqueues w and blocks until it is granted or ctx ends. It is
// entered with mu held and returns with mu released. While parked it wakes
// at the holders' next lease expiry, since nobody else may come by to reap
// it.
func (l *itemLock) waitLocked(ctx context.Context, now time.Time, w *waiter) error {
	l.waiters = append(l.waiters, w)
	l.dispatchLocked(now)
	expiry := l.nextExpiryLocked()
	l.mu.Unlock()

	untilExpiry := func() time.Duration {
		if expiry.IsZero() {
			return coarsePoll
		}
		return max(expiry.Sub(now), time.Millisecond)
	}
	timer := time.NewTimer(untilExpiry())
	defer timer.Stop()
	for {
		select {
		case <-w.ready:
			return nil
		case <-ctx.Done():
		case <-timer.C:
		}
		now = time.Now()
		l.mu.Lock()
		if err := ctx.Err(); err != nil {
			select {
			case <-w.ready:
				// Granted concurrently with cancellation: keep the grant;
				// the coordinator's abort will release it.
				err = nil
			default:
				w.cancelled = true
				l.dispatchLocked(now)
			}
			l.mu.Unlock()
			return err
		}
		// A lease may have expired: re-dispatch and re-arm.
		l.dispatchLocked(now)
		expiry = l.nextExpiryLocked()
		l.mu.Unlock()
		timer.Reset(untilExpiry())
	}
}

// pin marks op's exclusive hold as a prepared 2PC participant: the lease
// stops applying. It returns false if op does not hold the lock exclusively
// at now — it never did, or its lease ran out.
func (l *itemLock) pin(now time.Time, op OpID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(now)
	i := l.indexLocked(op)
	if i < 0 || l.holders[i].mode != lockExclusive {
		return false
	}
	l.holders[i].pinned = true
	l.holders[i].deadline = time.Time{}
	return true
}

// unpin turns op's hold, pinned on arrival by acquireOrdered, back into a
// leased one starting at now: nothing was staged under it after all.
func (l *itemLock) unpin(now time.Time, op OpID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := l.indexLocked(op); i >= 0 {
		l.holders[i].pinned = false
		l.holders[i].deadline = l.leaseFrom(now)
	}
}

// release drops op's hold. Releasing a non-held lock is a no-op, so
// duplicate aborts are harmless. With nobody queued it reads no clock and
// reaps nothing: an expired hold waits for the next visitor that has one.
func (l *itemLock) release(op OpID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := l.indexLocked(op); i >= 0 {
		l.dropLocked(i)
	}
	if len(l.waiters) > 0 {
		l.dispatchLocked(time.Now())
	}
}

// resetHolders drops every current hold (volatile lock state lost on
// amnesia) and lets queued waiters acquire against the fresh replica.
func (l *itemLock) resetHolders(now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holders = nil
	l.dispatchLocked(now)
}

// heldBy reports whether op holds the lock at now in at least the given
// mode.
func (l *itemLock) heldBy(now time.Time, op OpID, mode lockMode) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(now)
	i := l.indexLocked(op)
	return i >= 0 && l.holders[i].mode >= mode
}

// holderCount returns the number of holders at now (tests).
func (l *itemLock) holderCount(now time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(now)
	return len(l.holders)
}
