package replica

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// underNoWait runs fn the way the sim network runs a multicast leg on its
// sender's goroutine: under a context for which transport.NoWait is true.
func underNoWait(fn func(ctx context.Context)) {
	net := transport.NewNetwork()
	for id := nodeset.ID(0); id < 2; id++ {
		net.Register(id, func(ctx context.Context, _ nodeset.ID, _ transport.Message) (transport.Message, error) {
			if id == 0 {
				fn(ctx)
			}
			return nil, nil
		})
	}
	net.MulticastFunc(context.Background(), 0, nodeset.New(0, 1), nil, func(nodeset.ID, transport.Result) {})
}

// TestNoWaitAcquireChangesNothing: for each acquire policy, a request that
// would have to queue behind the holder (middle, by age) answers
// transport.ErrWouldWait under a no-wait context and leaves the lock exactly
// as it found it — holders, queue and all five counters — so running it
// again is running it for the first time: it queues behind whoever arrived
// meanwhile and is granted in that order. A request the policy turns away
// at once is turned away at once here too.
func TestNoWaitAcquireChangesNothing(t *testing.T) {
	ops := agedOps(3)
	oldest, middle, youngest := ops[0], ops[1], ops[2]
	counters := []string{"replica_lock_granted_total", "replica_lock_waited_total", "replica_lock_denied_total",
		"replica_lock_refused_total", "replica_lock_expired_total"}
	bg := context.Background()
	for _, tc := range []struct {
		name    string
		held    lockMode // how the conflicting holder holds
		acquire func(l *itemLock, ctx context.Context, op OpID) error
		atOnce  func(l *itemLock, ctx context.Context) error // the policy's immediate refusal, if it has one
		refusal error
		between bool // another waiter may queue between the attempt and the re-run
	}{
		{
			name: "plain",
			held: lockExclusive,
			acquire: func(l *itemLock, ctx context.Context, op OpID) error {
				return l.acquire(ctx, t0, op, lockShared)
			},
			between: true,
		},
		{
			name: "ordered",
			held: lockExclusive,
			acquire: func(l *itemLock, ctx context.Context, op OpID) error {
				_, err := l.acquireOrdered(ctx, t0, op, lockExclusive, true)
				return err
			},
			atOnce: func(l *itemLock, ctx context.Context) error {
				_, err := l.acquireOrdered(ctx, t0, youngest, lockExclusive, true)
				return err
			},
			refusal: errLockRefused,
			between: true,
		},
		{
			name: "behind readers",
			held: lockShared, // the only holders that policy waits for
			acquire: func(l *itemLock, ctx context.Context, op OpID) error {
				return l.acquireBehindReaders(ctx, t0, op)
			},
		},
	} {
		reg := obs.New()
		l := newItemLock(10 * time.Second)
		l.attachMetrics(reg)
		if _, err := l.acquireOrdered(bg, t0, middle, tc.held, false); err != nil {
			t.Fatal(err)
		}
		snapshot := func() (holders []holder, waiters int, counts []uint64) {
			l.mu.Lock()
			defer l.mu.Unlock()
			for _, name := range counters {
				counts = append(counts, reg.Counter(name).Load())
			}
			return slices.Clone(l.holders), len(l.waiters), counts
		}
		holders, waiters, counts := snapshot()

		var attempt, atOnce error
		underNoWait(func(ctx context.Context) {
			attempt = tc.acquire(l, ctx, oldest)
			if tc.atOnce != nil {
				atOnce = tc.atOnce(l, ctx)
			}
		})
		if !errors.Is(attempt, transport.ErrWouldWait) {
			t.Fatalf("%s: no-wait attempt against a conflicting holder: %v, want ErrWouldWait", tc.name, attempt)
		}
		if atOnce != tc.refusal {
			t.Errorf("%s: the request the policy refuses at once: %v under no-wait, want %v", tc.name, atOnce, tc.refusal)
		}
		if tc.refusal != nil {
			counts[3]++ // replica_lock_refused_total: that refusal, and nothing for the attempt
		}
		if h, w, c := snapshot(); !slices.Equal(h, holders) || w != waiters || !slices.Equal(c, counts) {
			t.Errorf("%s: after the attempt holders %+v, %d waiters, counters %v; before it %+v, %d, %v",
				tc.name, h, w, c, holders, waiters, counts)
		}

		// The re-run waits, behind a request that arrived in between.
		first := op(9, 1)
		var firstDone <-chan error
		if tc.between {
			firstDone = queued(t, l, func() error { return l.acquire(bg, t0, first, lockExclusive) })
		}
		rerun := queued(t, l, func() error { return tc.acquire(l, bg, oldest) })
		l.release(middle)
		if tc.between {
			if err := <-firstDone; err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			select {
			case err := <-rerun:
				t.Fatalf("%s: the re-run overtook a request queued before it (err %v)", tc.name, err)
			default:
			}
			l.release(first)
		}
		if err := <-rerun; err != nil {
			t.Fatalf("%s: re-run: %v", tc.name, err)
		}
		want := uint64(1)
		if tc.between {
			want = 2
		}
		if got := reg.Counter("replica_lock_waited_total").Load(); got != want {
			t.Errorf("%s: replica_lock_waited_total = %d, want %d: one per request that queued", tc.name, got, want)
		}
	}
}

// TestNoWaitRoundAgainstHeldReplica takes the seam through the handlers: a
// ReadSnap round over three replicas, one of them locked by a prepared
// write. The round serves the two free replicas where it was sent, the held
// one's leg waits on a worker — counted as one request, one wait — and
// completes when the write aborts.
func TestNoWaitRoundAgainstHeldReplica(t *testing.T) {
	reg := obs.New()
	h := newHarness(t, 3, []byte("v"), Config{Obs: reg})
	writer, reader := h.item(0).NextOp(), h.item(0).NextOp()
	if _, ok := h.call(t, 0, 1, LockPrepare{Op: writer, Update: Update{Data: []byte("w")}, NewVersion: 1, GoodSet: h.members}).(LockPrepareReply); !ok {
		t.Fatal("the write was not granted")
	}
	h.net.ResetStats()
	waited := reg.Counter("replica_lock_waited_total")

	replies := make(chan int)
	go func() {
		n := 0
		h.net.MulticastFunc(context.Background(), 0, h.members, Envelope{Item: "x", Msg: ReadSnap{Op: reader}}, func(to nodeset.ID, r transport.Result) {
			if snap, ok := r.Reply.(*SnapReply); ok && r.Err == nil && string(snap.Value) == "v" {
				n++
			} else {
				t.Errorf("replica %d answered %+v, %v", to, r.Reply, r.Err)
			}
		})
		replies <- n
	}()
	waitFor(t, 2*time.Second, func() bool { return waited.Load() == 1 }, "the held replica's leg never queued")
	if st := h.net.Stats(); st.Calls != 2 || st.Messages != 4 {
		t.Errorf("with one leg waiting: %d calls, %d messages, want 2 and 4", st.Calls, st.Messages)
	}
	h.call(t, 0, 1, Abort{Op: writer})
	if n := <-replies; n != 3 {
		t.Errorf("%d good snapshots, want 3", n)
	}
	if st := h.net.Stats(); st.Calls != 4 || st.Messages != 8 || h.net.Served(1) != 2 {
		t.Errorf("%d calls, %d messages, %d served by the held replica; want 4, 8, 2 (the round's three legs and the abort)",
			st.Calls, st.Messages, h.net.Served(1))
	}
	if got := waited.Load(); got != 1 {
		t.Errorf("replica_lock_waited_total = %d, want 1", got)
	}
}

// TestHandlerUsesRoundClock: a handler judges leases by the reading its
// round lent it and reads no clock of its own. A round whose clock is an
// hour old sends a LockPrepare that stages nothing — its predicted version
// is wrong — so the hold it leaves is leased from that reading: the next
// acquire, under the real clock, finds it expired and reaps it. Had the
// handler read the clock itself, the hold would have a minute to run and the
// younger operation would be refused behind it.
func TestHandlerUsesRoundClock(t *testing.T) {
	reg := obs.New()
	h := newHarness(t, 2, nil, Config{Obs: reg, LockLease: time.Minute})
	ops := agedOps(2)
	older, younger := ops[0], ops[1]
	round := &transport.Timed{Context: context.Background(), Now: time.Now().Add(-time.Hour)}
	var reply transport.Message
	h.net.MulticastFunc(round, 0, nodeset.New(1), Envelope{Item: "x", Msg: LockPrepare{
		Op: older, Update: Update{Data: []byte("x")}, NewVersion: 7, GoodSet: nodeset.New(1),
	}}, func(_ nodeset.ID, r transport.Result) { reply = valueOf(r.Reply) })
	if lp, ok := reply.(LockPrepareReply); !ok || lp.Prepared {
		t.Fatalf("the mispredicted LockPrepare answered %+v", reply)
	}
	if time.Since(round.Now) > time.Minute {
		t.Errorf("the round left its clock at %v, an hour old: it should hold the reading its last leg ended at", round.Now)
	}
	if _, ok := h.call(t, 0, 1, LockRequest{Op: younger, Mode: LockWrite}).(StateReply); !ok {
		t.Fatal("the younger operation was refused: the hold was leased from a clock the handler read")
	}
	if got := reg.Counter("replica_lock_expired_total").Load(); got != 1 {
		t.Errorf("replica_lock_expired_total = %d, want the one hold the round left", got)
	}
}
