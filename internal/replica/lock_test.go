package replica

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

func op(n nodeset.ID, seq uint64) OpID { return OpID{Coordinator: n, Seq: seq} }

// newItemLock builds a lock on its own, outside any node: its shared part is
// private to it and carries no counters until attachMetrics.
func newItemLock(lease time.Duration) *itemLock {
	return &itemLock{lockEnv: &lockEnv{lease: lease}}
}

func (l *itemLock) attachMetrics(r *obs.Registry) {
	*l.lockEnv = newLockEnv(l.lease, r)
}

func TestLockExclusiveBlocks(t *testing.T) {
	l := newItemLock(0)
	ctx := context.Background()
	if err := l.acquire(ctx, time.Now(), op(1, 1), lockExclusive); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := l.acquire(ctx2, time.Now(), op(2, 1), lockExclusive); err == nil {
		t.Fatal("second exclusive acquire succeeded")
	}
	l.release(op(1, 1))
	if err := l.acquire(ctx, time.Now(), op(2, 1), lockExclusive); err != nil {
		t.Fatal(err)
	}
}

func TestLockSharedCoexist(t *testing.T) {
	l := newItemLock(0)
	ctx := context.Background()
	for i := uint64(1); i <= 3; i++ {
		if err := l.acquire(ctx, time.Now(), op(1, i), lockShared); err != nil {
			t.Fatal(err)
		}
	}
	if l.holderCount(time.Now()) != 3 {
		t.Errorf("holders = %d", l.holderCount(time.Now()))
	}
	// A writer must wait for all readers.
	ctx2, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := l.acquire(ctx2, time.Now(), op(2, 1), lockExclusive); err == nil {
		t.Fatal("exclusive acquired alongside readers")
	}
	for i := uint64(1); i <= 3; i++ {
		l.release(op(1, i))
	}
	if err := l.acquire(ctx, time.Now(), op(2, 1), lockExclusive); err != nil {
		t.Fatal(err)
	}
}

func TestLockReentrantAndUpgrade(t *testing.T) {
	l := newItemLock(0)
	ctx := context.Background()
	o := op(1, 1)
	if err := l.acquire(ctx, time.Now(), o, lockShared); err != nil {
		t.Fatal(err)
	}
	// Re-acquire shared: idempotent.
	if err := l.acquire(ctx, time.Now(), o, lockShared); err != nil {
		t.Fatal(err)
	}
	if l.holderCount(time.Now()) != 1 {
		t.Errorf("holders = %d", l.holderCount(time.Now()))
	}
	// Upgrade to exclusive while sole holder.
	if err := l.acquire(ctx, time.Now(), o, lockExclusive); err != nil {
		t.Fatal(err)
	}
	if !l.heldBy(time.Now(), o, lockExclusive) {
		t.Error("upgrade did not take effect")
	}
	// Exclusive re-acquire as shared request stays exclusive.
	if err := l.acquire(ctx, time.Now(), o, lockShared); err != nil {
		t.Fatal(err)
	}
	if !l.heldBy(time.Now(), o, lockExclusive) {
		t.Error("re-acquire downgraded the lock")
	}
}

func TestLockUpgradeBlockedByOtherReader(t *testing.T) {
	l := newItemLock(0)
	ctx := context.Background()
	if err := l.acquire(ctx, time.Now(), op(1, 1), lockShared); err != nil {
		t.Fatal(err)
	}
	if err := l.acquire(ctx, time.Now(), op(2, 1), lockShared); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := l.acquire(ctx2, time.Now(), op(1, 1), lockExclusive); err == nil {
		t.Fatal("upgrade succeeded with a second reader present")
	}
}

func TestLockZeroOpRejected(t *testing.T) {
	l := newItemLock(0)
	if err := l.acquire(context.Background(), time.Now(), OpID{}, lockShared); err == nil {
		t.Error("zero OpID accepted")
	}
}

func TestLockReleaseUnknownNoop(t *testing.T) {
	l := newItemLock(0)
	l.release(op(9, 9)) // must not panic or corrupt
	if l.holderCount(time.Now()) != 0 {
		t.Error("phantom holder")
	}
}

func TestLockLeaseExpiry(t *testing.T) {
	l := newItemLock(30 * time.Millisecond)
	ctx := context.Background()
	if err := l.acquire(ctx, time.Now(), op(1, 1), lockExclusive); err != nil {
		t.Fatal(err)
	}
	// A competitor blocked on the lock gets it once the lease passes.
	start := time.Now()
	if err := l.acquire(ctx, time.Now(), op(2, 1), lockExclusive); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("lease expired too early")
	}
	if l.heldBy(time.Now(), op(1, 1), lockShared) {
		t.Error("expired holder still held")
	}
}

// t0 is where the hand-made clock of the lease tests starts. The lock takes
// every reading from its caller, so these tests pass the times in instead of
// sleeping; t0 lies decades back, so any reading the lock took for itself
// would find every lease below long expired.
var t0 = time.Unix(1_000_000, 0)

func TestLockPinPreventsExpiry(t *testing.T) {
	const lease = 20 * time.Millisecond
	l := newItemLock(lease)
	o := op(1, 1)
	if err := l.acquire(context.Background(), t0, o, lockExclusive); err != nil {
		t.Fatal(err)
	}
	if !l.pin(t0.Add(lease/2), o) {
		t.Fatal("pin failed")
	}
	// Long after the lease a competitor still queues, and gives up: its
	// context is over, and its own look at the (real) clock reaps nothing.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.acquire(gone, t0.Add(100*lease), op(2, 1), lockExclusive); err == nil {
		t.Fatal("pinned lock was stolen")
	}
	if !l.heldBy(t0.Add(100*lease), o, lockExclusive) {
		t.Error("pinned holder lost the lock")
	}
}

func TestLockPinAfterExpiryFails(t *testing.T) {
	const lease = 15 * time.Millisecond
	l := newItemLock(lease)
	o := op(1, 1)
	if err := l.acquire(context.Background(), t0, o, lockExclusive); err != nil {
		t.Fatal(err)
	}
	// The pin judges the lease by its own caller's clock, not by the
	// acquire's.
	if l.pin(t0.Add(lease+25*time.Millisecond), o) {
		t.Error("pin succeeded after lease expiry")
	}
	if err := l.acquire(context.Background(), t0, o, lockExclusive); err != nil {
		t.Fatal(err)
	}
	if !l.pin(t0.Add(lease), o) {
		t.Error("pin failed at the last instant of the lease")
	}
}

// TestLockReleaseReadsNoClock: with nobody queued a release only removes its
// own hold. Another holder whose lease has passed stays in the table until
// the next visitor that brings a clock reaps it — and counts it.
func TestLockReleaseReadsNoClock(t *testing.T) {
	const lease = time.Second
	reg := obs.New()
	l := newItemLock(lease)
	l.attachMetrics(reg)
	ctx := context.Background()
	a, b, c := op(1, 1), op(2, 1), op(3, 1)
	for _, o := range []OpID{a, b} {
		if err := l.acquire(ctx, t0, o, lockShared); err != nil {
			t.Fatal(err)
		}
	}
	l.release(a)
	l.mu.Lock()
	left := len(l.holders)
	l.mu.Unlock()
	if left != 1 || reg.Counter("replica_lock_expired_total").Load() != 0 {
		t.Fatalf("after a release with no waiter: %d holders, %d expired; the release read a clock",
			left, reg.Counter("replica_lock_expired_total").Load())
	}
	if err := l.acquire(ctx, t0.Add(2*lease), c, lockExclusive); err != nil {
		t.Fatal(err)
	}
	if !l.heldBy(t0.Add(2*lease), c, lockExclusive) || l.holderCount(t0.Add(2*lease)) != 1 {
		t.Error("the next acquire did not reap the expired hold")
	}
	if got := reg.Counter("replica_lock_expired_total").Load(); got != 1 {
		t.Errorf("replica_lock_expired_total = %d, want 1", got)
	}
}

// TestLockQueriesExpireOnDemand: heldBy and holderCount answer as of the
// time they are given.
func TestLockQueriesExpireOnDemand(t *testing.T) {
	const lease = time.Second
	reg := obs.New()
	l := newItemLock(lease)
	l.attachMetrics(reg)
	a, b := op(1, 1), op(2, 1)
	for _, o := range []OpID{a, b} {
		if err := l.acquire(context.Background(), t0, o, lockShared); err != nil {
			t.Fatal(err)
		}
	}
	if !l.heldBy(t0.Add(lease), a, lockShared) || l.holderCount(t0.Add(lease)) != 2 {
		t.Fatal("holds lost within their lease")
	}
	// A re-acquire renews a's lease from its own reading.
	if err := l.acquire(context.Background(), t0.Add(lease), a, lockShared); err != nil {
		t.Fatal(err)
	}
	if l.heldBy(t0.Add(lease+1), b, lockShared) {
		t.Error("heldBy kept a hold past its lease")
	}
	if n := l.holderCount(t0.Add(lease + 1)); n != 1 {
		t.Errorf("%d holders just past the first lease, want the renewed one", n)
	}
	if n := l.holderCount(t0.Add(2*lease + 1)); n != 0 {
		t.Errorf("%d holders past every lease", n)
	}
	if got := reg.Counter("replica_lock_expired_total").Load(); got != 2 {
		t.Errorf("replica_lock_expired_total = %d, want 2", got)
	}
}

// TestLockAcquirePinned: a LockPrepare's acquisition is pinned in the same
// visit, granted on arrival or from the queue, and unpin gives a hold that
// staged nothing its lease back.
func TestLockAcquirePinned(t *testing.T) {
	const lease = time.Second
	l := newItemLock(lease)
	ctx := context.Background()
	ops := agedOps(2)
	first, second := ops[1], ops[0] // the older one waits for the younger
	if _, err := l.acquireOrdered(ctx, t0, first, lockExclusive, true); err != nil {
		t.Fatal(err)
	}
	if !l.heldBy(t0.Add(10*lease), first, lockExclusive) {
		t.Fatal("a hold pinned on arrival expired")
	}
	l.unpin(t0.Add(10*lease), first)
	if !l.heldBy(t0.Add(11*lease), first, lockExclusive) || l.heldBy(t0.Add(11*lease+1), first, lockShared) {
		t.Error("an unpinned hold does not run one lease from the unpin")
	}

	if _, err := l.acquireOrdered(ctx, time.Now(), first, lockExclusive, false); err != nil {
		t.Fatal(err)
	}
	done := queued(t, l, func() error { _, err := l.acquireOrdered(ctx, time.Now(), second, lockExclusive, true); return err })
	l.release(first)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !l.heldBy(time.Now().Add(10*lease), second, lockExclusive) {
		t.Error("a hold pinned from the queue expired")
	}
}

func TestLockContention(t *testing.T) {
	l := newItemLock(0)
	const writers = 8
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				o := op(nodeset.ID(w), uint64(i+1))
				if err := l.acquire(context.Background(), time.Now(), o, lockExclusive); err != nil {
					t.Error(err)
					return
				}
				counter++ // protected by the item lock itself
				l.release(o)
			}
		}(w)
	}
	wg.Wait()
	if counter != writers*50 {
		t.Errorf("counter = %d, want %d (lock failed to exclude)", counter, writers*50)
	}
}

func TestOpIDString(t *testing.T) {
	o := op(3, 7)
	if o.String() != "n3#7" {
		t.Errorf("String = %q", o.String())
	}
	if o.IsZero() || !(OpID{}).IsZero() {
		t.Error("IsZero wrong")
	}
}

// agedOps returns n distinct operations sorted oldest first in the
// conflict order.
func agedOps(n int) []OpID {
	ops := make([]OpID, n)
	for i := range ops {
		ops[i] = op(nodeset.ID(i%5), uint64(100+i))
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Older(ops[j]) })
	return ops
}

// queued starts acquire in the background and returns once the request
// sits in l's queue.
func queued(t *testing.T, l *itemLock, acquire func() error) <-chan error {
	t.Helper()
	l.mu.Lock()
	before := len(l.waiters)
	l.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- acquire() }()
	waitFor(t, 2*time.Second, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.waiters) > before
	}, "request never queued")
	return done
}

// TestOrderedLockWaitOrRefuse: an ordered request waits only for younger
// ordered operations. Against an older holder it is refused at once, and —
// the case a holder-only rule misses — against an older *waiter* too,
// because joining a FIFO queue means waiting for everyone ahead.
func TestOrderedLockWaitOrRefuse(t *testing.T) {
	reg := obs.New()
	l := newItemLock(10 * time.Second)
	l.attachMetrics(reg)
	ctx := context.Background()
	ops := agedOps(4)
	oldest, middle, young, youngest := ops[0], ops[1], ops[2], ops[3]

	if _, err := l.acquireOrdered(ctx, time.Now(), young, lockExclusive, false); err != nil {
		t.Fatal(err)
	}
	// Younger than the holder: refused, naming it, nothing queued.
	if by, err := l.acquireOrdered(ctx, time.Now(), youngest, lockExclusive, false); err != errLockRefused || by != young {
		t.Fatalf("younger request: by=%v err=%v, want refusal by %v", by, err, young)
	}
	// Older than the holder: waits.
	oldestDone := queued(t, l, func() error { _, err := l.acquireOrdered(ctx, time.Now(), oldest, lockExclusive, false); return err })
	// Older than the holder but younger than the waiter: must not queue.
	if by, err := l.acquireOrdered(ctx, time.Now(), middle, lockExclusive, false); err != errLockRefused || by != oldest {
		t.Fatalf("request behind an older waiter: by=%v err=%v, want refusal by %v", by, err, oldest)
	}
	// A shared request conflicts with nobody older once the holder leaves,
	// but in a FIFO queue it too would wait behind the older waiter.
	if by, err := l.acquireOrdered(ctx, time.Now(), middle, lockShared, false); err != errLockRefused || by != oldest {
		t.Fatalf("shared request behind an older waiter: by=%v err=%v, want refusal by %v", by, err, oldest)
	}
	l.release(young)
	if err := <-oldestDone; err != nil {
		t.Fatal(err)
	}
	// The waiter, once granted from the queue, is an ordered holder like
	// any other.
	if by, err := l.acquireOrdered(ctx, time.Now(), middle, lockExclusive, false); err != errLockRefused || by != oldest {
		t.Fatalf("request against a holder granted from the queue: by=%v err=%v, want refusal by %v", by, err, oldest)
	}
	l.release(oldest)
	if got := reg.Counter("replica_lock_refused_total").Load(); got != 4 {
		t.Errorf("replica_lock_refused_total = %d, want 4", got)
	}
	if got := reg.Counter("replica_lock_denied_total").Load(); got != 0 {
		t.Errorf("replica_lock_denied_total = %d, want 0", got)
	}
}

// TestOrderedLockExemptsSingleSiteHolders: operations that lock one replica
// and wait nowhere else while they hold it (plain acquire: ReadSnap, a
// propagation offer, ApplyDirect) are outside the order on both sides. An
// ordered request queues behind one whatever its age, and one queues behind
// an ordered holder whatever its age.
func TestOrderedLockExemptsSingleSiteHolders(t *testing.T) {
	l := newItemLock(10 * time.Second)
	ctx := context.Background()
	ops := agedOps(3)
	oldest, middle, youngest := ops[0], ops[1], ops[2]

	if err := l.acquire(ctx, time.Now(), oldest, lockExclusive); err != nil {
		t.Fatal(err)
	}
	orderedDone := queued(t, l, func() error { _, err := l.acquireOrdered(ctx, time.Now(), youngest, lockExclusive, false); return err })
	// A second ordered request is still subject to the order among ordered
	// ones: youngest is ahead of it in the queue, and younger, so it waits.
	middleDone := queued(t, l, func() error { _, err := l.acquireOrdered(ctx, time.Now(), middle, lockExclusive, false); return err })
	l.release(oldest)
	if err := <-orderedDone; err != nil {
		t.Fatal(err)
	}
	// An exempt request younger than nobody in particular queues behind the
	// ordered holder and the ordered waiter.
	exempt := op(7, 7)
	exemptDone := queued(t, l, func() error { return l.acquire(ctx, time.Now(), exempt, lockShared) })
	l.release(youngest)
	if err := <-middleDone; err != nil {
		t.Fatal(err)
	}
	l.release(middle)
	if err := <-exemptDone; err != nil {
		t.Fatal(err)
	}
	if !l.heldBy(time.Now(), exempt, lockShared) {
		t.Error("exempt request not granted after the ordered ones left")
	}
}

// TestOrderedLockSharedBehindExemptWaiter: a shared request is compatible
// with an older shared holder, but if an exempt exclusive waiter (a
// write-through, a propagation offer) is queued for that holder, FIFO puts
// the request behind it and so, in effect, behind the older holder. The
// order cannot see the exempt waiter, so it has to count the holder: two
// heavy reads each holding shared locks the other queues for, with a push
// in between, waited out CallTimeout before this was refused.
func TestOrderedLockSharedBehindExemptWaiter(t *testing.T) {
	l := newItemLock(10 * time.Second)
	ctx := context.Background()
	ops := agedOps(3)
	oldest, middle, youngest := ops[0], ops[1], ops[2]

	if _, err := l.acquireOrdered(ctx, time.Now(), middle, lockShared, false); err != nil {
		t.Fatal(err)
	}
	// Nothing queued: shared holders of any age share.
	if _, err := l.acquireOrdered(ctx, time.Now(), youngest, lockShared, false); err != nil {
		t.Fatalf("shared request beside a shared holder, empty queue: %v", err)
	}
	l.release(youngest)
	pushDone := queued(t, l, func() error { return l.acquire(ctx, time.Now(), op(7, 7), lockExclusive) })
	if by, err := l.acquireOrdered(ctx, time.Now(), youngest, lockShared, false); err != errLockRefused || by != middle {
		t.Fatalf("younger shared request behind an exempt waiter: by=%v err=%v, want refusal by the holder %v", by, err, middle)
	}
	// An older one may wait for the holder, through the waiter or not.
	oldestDone := queued(t, l, func() error { _, err := l.acquireOrdered(ctx, time.Now(), oldest, lockShared, false); return err })
	l.release(middle)
	if err := <-pushDone; err != nil {
		t.Fatal(err)
	}
	l.release(op(7, 7))
	if err := <-oldestDone; err != nil {
		t.Fatal(err)
	}
}

// TestAcquireBehindReaders: a direct-apply's acquisition waits for readers
// and for nothing else. A reader's hold ends with the read; a writer's may
// be a prepared participant's and last until its coordinator is heard from,
// and the sender of a one-way push has no deadline that reaches here.
func TestAcquireBehindReaders(t *testing.T) {
	l := newItemLock(10 * time.Second)
	ctx := context.Background()
	push, reader, writer := op(7, 7), op(1, 1), op(2, 1)

	// Free lock: granted, exclusively.
	if err := l.acquireBehindReaders(ctx, time.Now(), push); err != nil {
		t.Fatal(err)
	}
	if !l.heldBy(time.Now(), push, lockExclusive) {
		t.Fatal("the grant is not exclusive")
	}
	l.release(push)

	// Behind a reader: waits, and is granted when the reader leaves.
	if err := l.acquire(ctx, time.Now(), reader, lockShared); err != nil {
		t.Fatal(err)
	}
	done := queued(t, l, func() error { return l.acquireBehindReaders(ctx, time.Now(), push) })
	// Anybody queued, here the push itself, turns a second one away.
	if err := l.acquireBehindReaders(ctx, time.Now(), op(7, 8)); err != errLockBusy {
		t.Fatalf("behind a queued waiter: %v, want errLockBusy", err)
	}
	l.release(reader)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l.release(push)

	// A writer holds it, pinned or not: refused at once, nothing queued.
	if err := l.acquire(ctx, time.Now(), writer, lockExclusive); err != nil {
		t.Fatal(err)
	}
	l.pin(time.Now(), writer)
	if err := l.acquireBehindReaders(ctx, time.Now(), push); err != errLockBusy {
		t.Fatalf("behind a prepared writer: %v, want errLockBusy", err)
	}
	l.mu.Lock()
	queuedNow := len(l.waiters)
	l.mu.Unlock()
	if queuedNow != 0 {
		t.Errorf("%d waiters left behind by refused requests", queuedNow)
	}
}

// TestOrderedLocksNeverDeadlock is the rule's reason to exist: goroutines
// that each lock a random overlapping subset of several replicas' locks in
// a random order — the shape that ties two coordinators until CallTimeout
// under plain FIFO queues — all finish, without any wait ending by context
// or lease. A refused goroutine releases what it holds and starts over as a
// fresh operation, as a coordinator does.
func TestOrderedLocksNeverDeadlock(t *testing.T) {
	const (
		locks    = 6
		workers  = 12
		rounds   = 150
		lease    = 10 * time.Second
		deadline = lease / 2
	)
	reg := obs.New()
	ls := make([]*itemLock, locks)
	for i := range ls {
		ls[i] = newItemLock(lease)
		ls[i].attachMetrics(reg)
	}
	owner := make([]OpID, locks) // owner[i] is written only under ls[i], exclusively
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			seq := uint64(0)
			for r := 0; r < rounds; r++ {
				want := rng.Perm(locks)[:2+rng.Intn(locks-2)]
			attempt:
				for {
					seq++
					o := op(nodeset.ID(w), seq)
					for k, i := range want {
						if _, err := ls[i].acquireOrdered(ctx, time.Now(), o, lockExclusive, false); err != nil {
							for _, j := range want[:k] {
								ls[j].release(o)
							}
							if err != errLockRefused {
								t.Errorf("worker %d round %d: %v", w, r, err)
								return
							}
							runtime.Gosched()
							continue attempt
						}
						// Let the others run while this one holds part of
						// its set: on a single processor a worker would
						// otherwise finish whole rounds between two
						// preemptions and nobody would ever contend.
						runtime.Gosched()
					}
					for _, i := range want {
						owner[i] = o
					}
					for _, i := range want {
						if owner[i] != o {
							t.Errorf("lock %d held by %v and %v at once", i, o, owner[i])
						}
						ls[i].release(o)
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()
	for _, name := range []string{"replica_lock_denied_total", "replica_lock_expired_total"} {
		if got := reg.Counter(name).Load(); got != 0 {
			t.Errorf("%s = %d, want 0: a wait ended by timeout, not by the order", name, got)
		}
	}
	for _, name := range []string{"replica_lock_refused_total", "replica_lock_waited_total"} {
		if reg.Counter(name).Load() == 0 {
			t.Errorf("%s = 0: the workers did not contend", name)
		}
	}
}
