package replica

import (
	"context"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// TestApplyDirectOutcomesAreCounted: a direct-apply takes effect only on a
// replica that is neither stale nor recovering and exactly one version
// behind; every other outcome refuses, changes nothing and is counted by
// its reason, so that "why do pushes not land" is answerable from metrics.
func TestApplyDirectOutcomesAreCounted(t *testing.T) {
	reg := obs.New()
	h := newHarness(t, 2, []byte("...."), Config{Obs: reg})
	it := h.item(1)
	push := func(version uint64, data string, more ...Update) Ack {
		t.Helper()
		return h.call(t, 0, 1, ApplyDirect{
			Op: h.item(0).NextOp(), Update: Update{Data: []byte(data)}, More: more,
			NewVersion: version, GoodSet: nodeset.New(0),
		}).(Ack)
	}
	counts := func() [4]uint64 {
		return [4]uint64{
			reg.Counter("replica_push_applied_total").Load(),
			reg.Counter("replica_push_refused_gap_total").Load(),
			reg.Counter("replica_push_refused_stale_total").Load(),
			reg.Counter("replica_push_refused_recovering_total").Load(),
		}
	}

	if ack := push(1, "a"); !ack.OK {
		t.Fatalf("push at version+1 refused: %s", ack.Reason)
	}
	// A group-committed run arrives as one message and advances the replica
	// by its whole length, one log entry per version.
	if ack := push(2, "b", Update{Offset: 1, Data: []byte("c")}, Update{Offset: 2, Data: []byte("d")}); !ack.OK {
		t.Fatalf("run of three refused: %s", ack.Reason)
	}
	if v, ver := it.Value(); string(v) != "bcd." || ver != 4 {
		t.Fatalf("after 1+3 direct-applies: %q@%d, want \"bcd.\"@4", v, ver)
	}
	if st := it.State(); st.GoodVer != 4 || !st.Good.Equal(nodeset.New(0)) {
		t.Errorf("good list %v@%d, want {n0}@4", st.Good, st.GoodVer)
	}
	if ack := push(4, "x"); ack.OK { // duplicate
		t.Error("a push at the replica's own version was applied")
	}
	if ack := push(7, "x"); ack.OK { // two pushes were lost in between
		t.Error("a push across a gap was applied")
	}
	if ack := push(5, "x", Update{Offset: -1}); ack.OK { // malformed tail: none of the run applies
		t.Error("a run with an invalid update was applied")
	}
	if got, want := counts(), [4]uint64{2, 2, 0, 0}; got != want {
		t.Errorf("applied/gap/stale/recovering = %v, want %v", got, want)
	}

	it.mu.Lock()
	it.markStaleLocked(9)
	it.mu.Unlock()
	if ack := push(5, "x"); ack.OK {
		t.Error("a stale replica applied a push")
	}
	it.Amnesia()
	if ack := push(1, "x"); ack.OK {
		t.Error("a recovering replica applied a push")
	}
	if got, want := counts(), [4]uint64{2, 2, 1, 1}; got != want {
		t.Errorf("applied/gap/stale/recovering = %v, want %v", got, want)
	}

	// A replica whose lock a write holds refuses as busy instead of queueing
	// the push behind a hold that may outlast the sender.
	w := h.item(0).NextOp()
	if err := it.lock.acquire(context.Background(), time.Now(), w, lockExclusive); err != nil {
		t.Fatal(err)
	}
	if ack := push(1, "x"); ack.OK {
		t.Error("a replica locked by a write applied a push")
	}
	it.lock.release(w)
	if busy := reg.Counter("replica_push_refused_busy_total").Load(); busy != 1 {
		t.Errorf("replica_push_refused_busy_total = %d, want 1", busy)
	}
	if got, want := counts(), [4]uint64{2, 2, 1, 1}; got != want {
		t.Errorf("a busy refusal moved another counter: %v, want %v", got, want)
	}
}

// TestRefusedPushDoesNotAllocate: a bystander that missed one push refuses
// every later one until a quorum draws it; that steady state must not cost
// an allocation per refusal, with the counters on.
func TestRefusedPushDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := newHarness(t, 1, nil, Config{Obs: obs.New()})
	it := h.item(0)
	ctx := context.Background()
	m := ApplyDirect{Op: it.NextOp(), Update: Update{Data: []byte("x")}, NewVersion: 5, GoodSet: nodeset.New(0)}
	allocs := testing.AllocsPerRun(1000, func() {
		reply, err := it.handleApplyDirect(ctx, m)
		if err != nil || reply.(Ack).OK {
			t.Fatal("push across a gap was not refused")
		}
	})
	if allocs != 0 {
		t.Errorf("a refused push allocates %.1f times", allocs)
	}
}
