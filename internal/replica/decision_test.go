package replica

import (
	"context"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

func TestDecisionLogRecordAndQuery(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	o := h.item(0).NextOp()
	h.item(0).RecordDecision(o, true)
	reply := h.call(t, 1, 0, DecisionQuery{Op: o}).(DecisionReply)
	if !reply.Known || !reply.Commit {
		t.Errorf("reply = %+v", reply)
	}
	// Unknown op.
	reply = h.call(t, 1, 0, DecisionQuery{Op: h.item(0).NextOp()}).(DecisionReply)
	if reply.Known {
		t.Errorf("unknown op reported known: %+v", reply)
	}
	// Abort decision.
	o2 := h.item(0).NextOp()
	h.item(0).RecordDecision(o2, false)
	reply = h.call(t, 1, 0, DecisionQuery{Op: o2}).(DecisionReply)
	if !reply.Known || reply.Commit {
		t.Errorf("abort reply = %+v", reply)
	}
}

// TestDecisionRingWrapAround: the log keeps exactly the last maxDecisions
// outcomes in a backing array that stops growing at that bound.
func TestDecisionRingWrapAround(t *testing.T) {
	var l decisionLog
	const extra = 100
	ringBytes := func() int {
		return (cap(l.head) + len(l.chunks)*decisionChunk) * int(unsafe.Sizeof(decision{}))
	}
	for seq := uint64(1); seq <= maxDecisions+extra; seq++ {
		l.record(decision{seq: seq, vc: seq<<1 | 1})
		if seq == 10 && ringBytes() > 256 {
			t.Fatalf("%d ring bytes after ten records, want at most 256: a quiet item must stay small", ringBytes())
		}
	}
	if got := ringBytes(); got != 128<<10 {
		t.Fatalf("the full ring is %d bytes, want %d", got, 128<<10)
	}
	for _, seq := range []uint64{1, extra} {
		if _, known := l.lookup(seq); known {
			t.Errorf("seq %d survived %d later records", seq, maxDecisions)
		}
	}
	for _, seq := range []uint64{extra + 1, maxDecisions, maxDecisions + extra} {
		d, known := l.lookup(seq)
		if !known || !d.applies(seq) || d.applies(seq+1) {
			t.Errorf("seq %d: known=%v decision=%+v", seq, known, d)
		}
	}
}

// TestDecisionRingLatestRecordWins: a round of an operation aborts, a
// later round of the same operation commits; the termination query must
// see the commit, before and after the ring has wrapped.
func TestDecisionRingLatestRecordWins(t *testing.T) {
	h := newHarness(t, 1, nil, Config{})
	it := h.item(0)
	for _, fill := range []int{0, maxDecisions - 1} {
		for i := 0; i < fill; i++ {
			it.RecordDecision(it.NextOp(), false)
		}
		o := it.NextOp()
		it.RecordDecision(o, false)
		it.RecordCommit(o, 7)
		if d, known := it.decided(o); !known || !d.applies(0) || !d.applies(7) || d.applies(8) {
			t.Errorf("after %d fill records: known=%v decision=%+v, want the commit of version 7", fill, known, d)
		}
	}
}

// TestDecisionRingAmnesiaReset: the log is stable state and is lost with
// the rest of it.
func TestDecisionRingAmnesiaReset(t *testing.T) {
	h := newHarness(t, 1, nil, Config{})
	it := h.item(0)
	o := it.NextOp()
	it.RecordCommit(o, 1)
	it.Amnesia()
	if _, known := it.decided(o); known {
		t.Error("decision survived amnesia")
	}
	if it.decisions.head != nil || it.decisions.chunks != nil {
		t.Error("amnesia kept the ring's memory")
	}
}

// TestDecisionUnknownCounted: an unanswerable termination query is the
// one event that pins a participant for good, so it has a counter.
func TestDecisionUnknownCounted(t *testing.T) {
	reg := obs.New()
	h := newHarness(t, 2, nil, Config{Obs: reg})
	o := h.item(0).NextOp()
	h.item(0).RecordDecision(o, true)
	h.call(t, 1, 0, DecisionQuery{Op: o})
	unknown := reg.Counter("replica_decision_unknown_total")
	if n := unknown.Load(); n != 0 {
		t.Fatalf("a known decision counted as unknown (%d)", n)
	}
	if reply := h.call(t, 1, 0, DecisionQuery{Op: h.item(0).NextOp()}).(DecisionReply); reply.Known {
		t.Fatalf("reply = %+v", reply)
	}
	if n := unknown.Load(); n != 1 {
		t.Errorf("replica_decision_unknown_total = %d, want 1", n)
	}
}

// TestDecisionRingDoesNotAllocate: once the ring is full, recording and
// querying allocate nothing — the log's memory no longer follows the
// number of operations completed.
func TestDecisionRingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := newHarness(t, 1, nil, Config{})
	it := h.item(0)
	for i := 0; i < maxDecisions; i++ {
		it.RecordDecision(it.NextOp(), true)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		o := it.NextOp()
		it.RecordDecision(o, false)
		it.RecordCommit(o, 3)
		if d, known := it.decided(o); !known || !d.applies(3) {
			t.Fatal("fresh record not found")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state record+lookup allocates %.1f times per run", allocs)
	}
}

// TestResolverCommitsAbandonedPrepare is the termination protocol end to
// end: a participant prepared an update, the coordinator recorded "commit"
// but its Commit message never arrived; the resolver must learn the
// decision and apply the write.
func TestResolverCommitsAbandonedPrepare(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 20 * time.Millisecond,
		ResolveAfter:    50 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	// Coordinator decides commit but "crashes" before delivering it.
	h.item(0).RecordDecision(o, true)

	waitFor(t, 3*time.Second, func() bool {
		_, v := h.item(1).Value()
		return v == 1
	}, "resolver never committed the abandoned prepare")
	if h.item(1).lock.holderCount(time.Now()) != 0 {
		t.Error("lock still held after resolution")
	}
}

// TestResolverAbortsAbandonedPrepare mirrors the abort decision.
func TestResolverAbortsAbandonedPrepare(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 20 * time.Millisecond,
		ResolveAfter:    50 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	h.item(0).RecordDecision(o, false)

	waitFor(t, 3*time.Second, func() bool {
		return h.item(1).lock.holderCount(time.Now()) == 0
	}, "resolver never aborted the abandoned prepare")
	if _, v := h.item(1).Value(); v != 0 {
		t.Errorf("aborted write applied: version %d", v)
	}
}

// TestResolverWaitsWhileCoordinatorUnknown: no decision recorded — the
// participant must stay prepared (blocked), never guessing.
func TestResolverWaitsWhileCoordinatorUnknown(t *testing.T) {
	cfg := Config{
		LockLease:       100 * time.Millisecond,
		ResolveInterval: 15 * time.Millisecond,
		ResolveAfter:    30 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	time.Sleep(150 * time.Millisecond)
	if !h.item(1).lock.heldBy(time.Now(), o, lockExclusive) {
		t.Error("participant unblocked without a decision")
	}
	if _, v := h.item(1).Value(); v != 0 {
		t.Error("participant applied without a decision")
	}
}

// TestResolverThroughCrashedCoordinator: the coordinator node is down when
// the resolver first asks; once it restarts, the recorded decision flows.
func TestResolverThroughCrashedCoordinator(t *testing.T) {
	cfg := Config{
		LockLease:              200 * time.Millisecond,
		ResolveInterval:        20 * time.Millisecond,
		ResolveAfter:           40 * time.Millisecond,
		PropagationCallTimeout: 100 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	h.item(0).RecordDecision(o, true)
	h.net.Crash(0)
	time.Sleep(120 * time.Millisecond)
	if _, v := h.item(1).Value(); v != 0 {
		t.Error("resolved through a crashed coordinator")
	}
	h.net.Restart(0)
	waitFor(t, 3*time.Second, func() bool {
		_, v := h.item(1).Value()
		return v == 1
	}, "resolution never completed after coordinator restart")
}

// TestLocalCoordinatorSelfResolves: the coordinator's own replica staged an
// action and the decision is in its local log.
func TestLocalCoordinatorSelfResolves(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 20 * time.Millisecond,
		ResolveAfter:    40 * time.Millisecond,
	}
	h := newHarness(t, 1, nil, cfg)
	it := h.item(0)
	o := it.NextOp()
	h.call(t, 0, 0, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 0, PrepareUpdate{Op: o, Update: Update{Data: []byte("x")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	it.RecordDecision(o, true)
	waitFor(t, 3*time.Second, func() bool {
		_, v := it.Value()
		return v == 1
	}, "local self-resolution never happened")
}

// TestResolverOneWalkPerNode: staged actions on many items of one node are
// all on that node's single termination walk, every one is resolved from
// it, and the walk parks once nothing is staged — no item keeps a goroutine
// or a ticker of its own.
func TestResolverOneWalkPerNode(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 10 * time.Millisecond,
		ResolveAfter:    30 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	const items = 40
	names := make([]string, items)
	ops := make([]OpID, items)
	for i := range names {
		names[i] = fmt.Sprintf("k%d", i)
		for _, nd := range h.nodes {
			if _, err := nd.AddItem(names[i], h.members, nil); err != nil {
				t.Fatal(err)
			}
		}
		ops[i] = h.nodes[0].Item(names[i]).NextOp()
		for _, msg := range []any{
			LockRequest{Op: ops[i], Mode: LockWrite},
			PrepareUpdate{Op: ops[i], Update: Update{Data: []byte("t")}, NewVersion: 1},
		} {
			if _, err := h.net.Call(context.Background(), 0, 1, Envelope{Item: names[i], Msg: msg}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// walk reads the list between sweeps; during one the sweeper holds it.
	walk := func() (watched int, running bool) {
		nd := h.nodes[1]
		nd.resMu.Lock()
		defer nd.resMu.Unlock()
		return len(nd.resWatched), nd.resRunning
	}
	waitFor(t, 3*time.Second, func() bool {
		watched, running := walk()
		return watched == items && running
	}, "the walk does not hold every staged item")
	for i, name := range names {
		h.nodes[0].Item(name).RecordDecision(ops[i], i%2 == 0)
	}
	waitFor(t, 3*time.Second, func() bool {
		watched, running := walk()
		return watched == 0 && !running
	}, "the walk never drained and parked")
	for i, name := range names {
		it := h.nodes[1].Item(name)
		if _, v := it.Value(); v != uint64((i+1)%2) {
			t.Errorf("%s: version %d after decision commit=%v", name, v, i%2 == 0)
		}
		if it.lock.holderCount(time.Now()) != 0 {
			t.Errorf("%s: lock still held after resolution", name)
		}
	}
	// A parked walk restarts on the next staging.
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1})
	waitFor(t, 3*time.Second, func() bool {
		watched, running := walk()
		return watched == 1 && running
	}, "a new staging did not restart the walk")
	h.call(t, 0, 1, Abort{Op: o})
}

// TestResolverSkipsUnreachableCoordinator: a coordinator that failed to
// answer earlier in a sweep is not queried again in it, so a dead node costs
// the one walk one call timeout rather than one per item it left blocked.
func TestResolverSkipsUnreachableCoordinator(t *testing.T) {
	cfg := Config{LockLease: 200 * time.Millisecond, ResolveInterval: time.Hour, ResolveAfter: time.Nanosecond}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1})
	h.item(0).RecordDecision(o, true)
	time.Sleep(time.Millisecond)

	h.net.Crash(0)
	var unreachable nodeset.Set
	h.item(1).resolveStale(&unreachable)
	if !unreachable.Contains(0) {
		t.Fatal("a failed query did not mark the coordinator unreachable")
	}
	h.net.Restart(0)
	h.item(1).resolveStale(&unreachable)
	if _, v := h.item(1).Value(); v != 0 {
		t.Fatal("queried a coordinator already marked unreachable this sweep")
	}
	unreachable = nodeset.Set{}
	h.item(1).resolveStale(&unreachable)
	if _, v := h.item(1).Value(); v != 1 {
		t.Fatal("the next sweep did not resolve through the restarted coordinator")
	}
}
