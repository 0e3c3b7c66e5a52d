package replica

import (
	"context"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// makeStale runs a minimal committed write on good nodes marking the rest
// stale, without triggering the automatic propagation (StaleSet omitted),
// so propagation paths can be driven explicitly.
func makeStale(t *testing.T, h *harness, good []int, stale []int, u Update, newVersion uint64) {
	t.Helper()
	o := h.item(good[0]).NextOp()
	for _, g := range good {
		h.call(t, good[0], g, LockRequest{Op: o, Mode: LockWrite})
	}
	for _, s := range stale {
		h.call(t, good[0], s, LockRequest{Op: o, Mode: LockWrite})
	}
	for _, g := range good {
		if ack := h.call(t, good[0], g, PrepareUpdate{Op: o, Update: u, NewVersion: newVersion}).(Ack); !ack.OK {
			t.Fatalf("prepare at %d: %s", g, ack.Reason)
		}
	}
	for _, s := range stale {
		if ack := h.call(t, good[0], s, PrepareStale{Op: o, Desired: newVersion}).(Ack); !ack.OK {
			t.Fatalf("prepare-stale at %d: %s", s, ack.Reason)
		}
	}
	for _, n := range append(append([]int{}, good...), stale...) {
		if ack := h.call(t, good[0], n, Commit{Op: o}).(Ack); !ack.OK {
			t.Fatalf("commit at %d: %s", n, ack.Reason)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestPropagationOfferStatuses(t *testing.T) {
	h := newHarness(t, 3, nil, Config{})
	makeStale(t, h, []int{0}, []int{1}, Update{Data: []byte("v1")}, 1)

	// Offer from an up-to-date source: permitted.
	o := h.item(0).NextOp()
	reply := h.call(t, 0, 1, PropagationOffer{Op: o, Version: 1}).(PropagationReply)
	if reply.Status != PropPermitted || reply.TargetVersion != 0 {
		t.Fatalf("reply = %+v", reply)
	}
	// Second offer while first holds the lock: already-recovering.
	o2 := h.item(2).NextOp()
	reply2 := h.call(t, 2, 1, PropagationOffer{Op: o2, Version: 1}).(PropagationReply)
	if reply2.Status != PropAlreadyRecovering {
		t.Fatalf("reply2 = %+v", reply2)
	}
	// Offer with an insufficient version: i-am-current ("the version number
	// from the propagation offer is less than the desired version number").
	h.call(t, 0, 1, Abort{Op: o}) // release the first propagation lock
	o3 := h.item(2).NextOp()
	reply3 := h.call(t, 2, 1, PropagationOffer{Op: o3, Version: 0}).(PropagationReply)
	if reply3.Status != PropIAmCurrent {
		t.Fatalf("reply3 = %+v", reply3)
	}
	// Offer to a non-stale replica: i-am-current.
	o4 := h.item(0).NextOp()
	reply4 := h.call(t, 1, 2, PropagationOffer{Op: o4, Version: 5}).(PropagationReply)
	if reply4.Status != PropIAmCurrent {
		t.Fatalf("reply4 = %+v", reply4)
	}
}

func TestPropagationDataByUpdates(t *testing.T) {
	// 64 bytes: a value the one logged update is cheaper to ship than.
	base := append([]byte("base"), make([]byte, 60)...)
	h := newHarness(t, 2, base, Config{})
	makeStale(t, h, []int{0}, []int{1}, Update{Offset: 0, Data: []byte("B")}, 1)

	o := h.item(0).NextOp()
	reply := h.call(t, 0, 1, PropagationOffer{Op: o, Version: 1}).(PropagationReply)
	if reply.Status != PropPermitted {
		t.Fatalf("offer: %+v", reply)
	}
	ups, ok := h.item(0).store.UpdatesSince(reply.TargetVersion)
	if !ok {
		t.Fatal("source log truncated unexpectedly")
	}
	ack := h.call(t, 0, 1, PropagationData{Op: o, FromVersion: reply.TargetVersion, Updates: ups}).(Ack)
	if !ack.OK {
		t.Fatalf("data refused: %s", ack.Reason)
	}
	s := h.item(1).State()
	if s.Stale || s.Version != 1 {
		t.Errorf("target state = %+v", s)
	}
	if v, _ := h.item(1).Value(); string(v[:4]) != "Base" || len(v) != len(base) {
		t.Errorf("target value = %q", v)
	}
	if h.item(1).lock.holderCount(time.Now()) != 0 {
		t.Error("target lock held after propagation")
	}
}

func TestPropagationDataBySnapshot(t *testing.T) {
	h := newHarness(t, 2, nil, Config{MaxLog: 1})
	makeStale(t, h, []int{0}, []int{1}, Update{Data: []byte("v1")}, 1)
	// Advance node 0 beyond its log horizon.
	makeStale(t, h, []int{0}, nil, Update{Offset: 2, Data: []byte("v2")}, 2)
	makeStale(t, h, []int{0}, nil, Update{Offset: 4, Data: []byte("v3")}, 3)

	o := h.item(0).NextOp()
	reply := h.call(t, 0, 1, PropagationOffer{Op: o, Version: 3}).(PropagationReply)
	if reply.Status != PropPermitted {
		t.Fatalf("offer: %+v", reply)
	}
	if _, ok := h.item(0).store.UpdatesSince(reply.TargetVersion); ok {
		t.Fatal("log unexpectedly reaches target version; test needs MaxLog=1")
	}
	snap, v := h.item(0).store.Snapshot()
	ack := h.call(t, 0, 1, PropagationData{Op: o, HasSnapshot: true, Snapshot: snap, SnapVersion: v}).(Ack)
	if !ack.OK {
		t.Fatalf("snapshot refused: %s", ack.Reason)
	}
	got, gv := h.item(1).Value()
	want, wv := h.item(0).Value()
	if string(got) != string(want) || gv != wv {
		t.Errorf("target %q@%d, source %q@%d", got, gv, want, wv)
	}
}

func TestPropagationDataWithoutLockRefused(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	makeStale(t, h, []int{0}, []int{1}, Update{Data: []byte("a")}, 1)
	o := h.item(0).NextOp()
	ack := h.call(t, 0, 1, PropagationData{Op: o, FromVersion: 0}).(Ack)
	if ack.OK {
		t.Error("data without permitted offer accepted")
	}
}

func TestAutomaticPropagationAfterWrite(t *testing.T) {
	h := newHarness(t, 3, []byte("...."), Config{PropagationRetry: 5 * time.Millisecond})
	// Full write flow with StaleSet so commit triggers the worker.
	o := h.item(0).NextOp()
	u := Update{Offset: 0, Data: []byte("W")}
	for n := 0; n < 3; n++ {
		h.call(t, 0, n, LockRequest{Op: o, Mode: LockWrite})
	}
	stale := nodeset.New(2)
	for _, g := range []int{0, 1} {
		if ack := h.call(t, 0, g, PrepareUpdate{Op: o, Update: u, NewVersion: 1, StaleSet: stale}).(Ack); !ack.OK {
			t.Fatalf("prepare: %s", ack.Reason)
		}
	}
	if ack := h.call(t, 0, 2, PrepareStale{Op: o, Desired: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare-stale: %s", ack.Reason)
	}
	for n := 0; n < 3; n++ {
		h.call(t, 0, n, Commit{Op: o})
	}
	waitFor(t, 2*time.Second, func() bool {
		s := h.item(2).State()
		return !s.Stale && s.Version == 1
	}, "stale replica never brought current")
	if v, _ := h.item(2).Value(); string(v) != "W..." {
		t.Errorf("propagated value = %q", v)
	}
}

// TestStalenessDurationHistogram pins the paper-facing metric of Section
// 4.2: a partial write marks a replica stale, asynchronous propagation
// brings it current, and the stale-mark-to-brought-current interval lands
// in replica_staleness_duration_ns along with the mark/clear counters and
// the offer/transfer tallies.
func TestStalenessDurationHistogram(t *testing.T) {
	r := obs.New()
	h := newHarness(t, 3, make([]byte, 64), Config{PropagationRetry: 5 * time.Millisecond, Obs: r})

	o := h.item(0).NextOp()
	u := Update{Offset: 0, Data: []byte("W")}
	for n := 0; n < 3; n++ {
		h.call(t, 0, n, LockRequest{Op: o, Mode: LockWrite})
	}
	stale := nodeset.New(2)
	for _, g := range []int{0, 1} {
		if ack := h.call(t, 0, g, PrepareUpdate{Op: o, Update: u, NewVersion: 1, StaleSet: stale}).(Ack); !ack.OK {
			t.Fatalf("prepare: %s", ack.Reason)
		}
	}
	if ack := h.call(t, 0, 2, PrepareStale{Op: o, Desired: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare-stale: %s", ack.Reason)
	}
	for n := 0; n < 3; n++ {
		h.call(t, 0, n, Commit{Op: o})
	}
	waitFor(t, 2*time.Second, func() bool {
		s := h.item(2).State()
		return !s.Stale && s.Version == 1
	}, "stale replica never brought current")

	if got := r.Counter("replica_stale_marked_total").Load(); got != 1 {
		t.Errorf("stale_marked_total = %d, want 1", got)
	}
	if got := r.Counter("replica_stale_cleared_total").Load(); got != 1 {
		t.Errorf("stale_cleared_total = %d, want 1", got)
	}
	hist := r.Histogram("replica_staleness_duration_ns").Snapshot()
	if hist.Count != 1 || hist.Sum == 0 {
		t.Errorf("staleness histogram count/sum = %d/%d, want 1 nonzero-sum sample", hist.Count, hist.Sum)
	}
	if got := r.Counter("replica_propagation_offers_permitted_total").Load(); got < 1 {
		t.Errorf("offers_permitted_total = %d, want >= 1", got)
	}
	if got := r.Counter("replica_propagation_updates_total").Load(); got < 1 {
		t.Errorf("propagation_updates_total = %d, want >= 1", got)
	}
	if got := r.Counter("replica_commits_total").Load(); got != 3 {
		t.Errorf("commits_total = %d, want 3", got)
	}
}

func TestPropagationRetriesWhileTargetDown(t *testing.T) {
	h := newHarness(t, 2, nil, Config{
		PropagationRetry:       5 * time.Millisecond,
		PropagationCallTimeout: 50 * time.Millisecond,
	})
	h.net.Crash(1)
	makeStale(t, h, []int{0}, nil, Update{Data: []byte("a")}, 1)
	// Manually mark node 1 stale (it is down, so no protocol write can).
	it1 := h.item(1)
	it1.mu.Lock()
	it1.stale = true
	it1.desired = 1
	it1.mu.Unlock()

	h.item(0).enqueuePropagation(nodeset.New(1))
	time.Sleep(60 * time.Millisecond)
	if h.item(0).PendingPropagation().Empty() {
		t.Fatal("target dropped while down")
	}
	h.net.Restart(1)
	waitFor(t, 2*time.Second, func() bool {
		s := h.item(1).State()
		return !s.Stale && s.Version == 1
	}, "propagation never completed after restart")
	waitFor(t, time.Second, func() bool {
		return h.item(0).PendingPropagation().Empty()
	}, "pending set never drained")
}

func TestStaleSourceDropsPropagation(t *testing.T) {
	h := newHarness(t, 3, nil, Config{PropagationRetry: 5 * time.Millisecond})
	// Make node 0 stale, then ask it to propagate: it must refuse and drop.
	makeStale(t, h, []int{1}, []int{0}, Update{Data: []byte("a")}, 1)
	h.item(0).enqueuePropagation(nodeset.New(2))
	waitFor(t, time.Second, func() bool {
		return h.item(0).PendingPropagation().Empty()
	}, "stale source kept propagation work")
	// Node 2 must not have been touched.
	if s := h.item(2).State(); s.Stale || s.Version != 0 {
		t.Errorf("node 2 state = %+v", s)
	}
}

func TestEnqueuePropagationExcludesSelf(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	h.item(0).enqueuePropagation(nodeset.New(0))
	if !h.item(0).PendingPropagation().Empty() {
		t.Error("self enqueued for propagation")
	}
}

func TestEpochCommitTriggersPropagation(t *testing.T) {
	h := newHarness(t, 3, []byte("eee"), Config{PropagationRetry: 5 * time.Millisecond})
	// Node 0 writes alone (nodes 1,2 stale with desired 1).
	makeStale(t, h, []int{0}, []int{1, 2}, Update{Offset: 0, Data: []byte("E")}, 1)
	// Epoch change listing 0 as good triggers propagation to 1 and 2.
	o := h.item(0).NextOp()
	for n := 0; n < 3; n++ {
		h.call(t, 0, n, LockRequest{Op: o, Mode: LockWrite})
		ack := h.call(t, 0, n, PrepareEpoch{
			Op: o, Epoch: h.members, EpochNum: 1, Good: nodeset.New(0), MaxVersion: 1,
		}).(Ack)
		if !ack.OK {
			t.Fatalf("prepare-epoch at %d: %s", n, ack.Reason)
		}
	}
	for n := 0; n < 3; n++ {
		h.call(t, 0, n, Commit{Op: o})
	}
	for _, n := range []int{1, 2} {
		waitFor(t, 2*time.Second, func() bool {
			s := h.item(n).State()
			return !s.Stale && s.Version == 1
		}, "epoch-triggered propagation incomplete")
	}
}

func TestPropagationAbandonOnSourceLockTimeout(t *testing.T) {
	h := newHarness(t, 2, nil, Config{
		PropagationRetry:       5 * time.Millisecond,
		PropagationCallTimeout: 40 * time.Millisecond,
		LockLease:              150 * time.Millisecond,
	})
	makeStale(t, h, []int{0}, []int{1}, Update{Data: []byte("a")}, 1)
	// Hold the source's lock exclusively so the worker cannot read.
	blocker := h.item(0).NextOp()
	if err := h.item(0).lock.acquire(context.Background(), time.Now(), blocker, lockExclusive); err != nil {
		t.Fatal(err)
	}
	h.item(0).enqueuePropagation(nodeset.New(1))
	time.Sleep(100 * time.Millisecond)
	// Target should not be stuck "already recovering" forever: abandon sent
	// or its lease expires. Release the blocker and check completion.
	h.item(0).lock.release(blocker)
	waitFor(t, 3*time.Second, func() bool {
		s := h.item(1).State()
		return !s.Stale && s.Version == 1
	}, "propagation never recovered from source lock contention")
}

// TestPropagationKeepsDutyMergedDuringOffer pins a lost-duty race (the
// benchmark's Finding 2). A source offers propagation at its version v; the
// offer waits at the target behind a write in its commit phase. That write
// commits at the source (now v+1, and the write's own duty toward the
// target is merged into the pending set) and then at the target, marking it
// stale with desired v+1. The old offer is answered "i-am-current" (desired
// > offered), and dropping the target on that answer dropped the merged
// duty with it: the replica stayed stale until an unrelated write reached
// it.
func TestPropagationKeepsDutyMergedDuringOffer(t *testing.T) {
	for name, batch := range map[string]bool{"per-item worker": false, "batched dispatcher": true} {
		t.Run(name, func(t *testing.T) { mergedDutySurvives(t, batch) })
	}
}

func mergedDutySurvives(t *testing.T, batch bool) {
	h := newHarness(t, 2, nil, Config{PropagationBatch: batch, PropagationRetry: 5 * time.Millisecond})
	source, target := h.item(0), h.item(1)

	// A write by node 0: good set {0}, node 1 to be marked stale.
	w := source.NextOp()
	h.call(t, 0, 0, LockRequest{Op: w, Mode: LockWrite})
	h.call(t, 0, 1, LockRequest{Op: w, Mode: LockWrite})
	if ack := h.call(t, 0, 0, PrepareUpdate{Op: w, Update: Update{Data: []byte("v1")}, NewVersion: 1, StaleSet: nodeset.New(1)}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	if ack := h.call(t, 0, 1, PrepareStale{Op: w, Desired: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare-stale: %s", ack.Reason)
	}

	// An older duty: the source offers at version 0 and the offer queues
	// at the target behind the write's lock.
	source.enqueuePropagation(nodeset.New(1))
	waitFor(t, 2*time.Second, func() bool {
		target.lock.mu.Lock()
		defer target.lock.mu.Unlock()
		return len(target.lock.waiters) > 0
	}, "the offer never reached the target's lock queue")

	h.call(t, 0, 0, Commit{Op: w}) // source at v1; merges the write's duty
	h.call(t, 0, 1, Commit{Op: w}) // target stale, desired 1; the old offer proceeds

	waitFor(t, 2*time.Second, func() bool {
		s := target.State()
		return !s.Stale && s.Version == 1
	}, "the duty merged during the offer was dropped: target still stale")
}
