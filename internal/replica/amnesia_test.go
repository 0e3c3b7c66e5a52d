package replica

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/transport"
)

func TestAmnesiaResetsEverything(t *testing.T) {
	h := newHarness(t, 2, []byte("data"), Config{})
	it := h.item(0)
	// Build up state: a committed write, a decision, a lock hold.
	makeStale(t, h, []int{0}, []int{1}, Update{Data: []byte("x")}, 1)
	it.RecordDecision(it.NextOp(), true)
	blocker := it.NextOp()
	h.call(t, 1, 0, LockRequest{Op: blocker, Mode: LockWrite})

	it.Amnesia()

	if !it.Recovering() {
		t.Error("not recovering")
	}
	st := it.State()
	if st.Version != 0 || st.Stale || st.EpochNum != 0 || !st.Epoch.Empty() || !st.Recovering {
		t.Errorf("state after amnesia = %+v", st)
	}
	// The written value is gone; the store is back on the configured
	// initial (deployment config, not lost state — see amnesia.go).
	if v, _ := it.Value(); string(v) != "data" {
		t.Errorf("value after amnesia = %q, want configured initial %q", v, "data")
	}
	if it.lock.holderCount(time.Now()) != 0 {
		t.Error("lock holds survived amnesia")
	}
	if !it.PendingPropagation().Empty() {
		t.Error("propagation queue survived amnesia")
	}
	// The old decision log is gone.
	reply := h.call(t, 1, 0, DecisionQuery{Op: OpID{Coordinator: 0, Seq: 1}}).(DecisionReply)
	if reply.Known {
		t.Error("decision log survived amnesia")
	}
}

func TestRecoveringRefusesDataPrepares(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	h.item(1).Amnesia()
	if ack := h.call(t, 0, 1, ApplyDirect{Op: h.item(0).NextOp(), Update: Update{Data: []byte("c")}, NewVersion: 1}).(Ack); ack.OK {
		t.Error("recovering replica accepted a direct apply")
	}
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("a")}, NewVersion: 1}).(Ack); ack.OK {
		t.Error("recovering replica accepted an update")
	}
	if ack := h.call(t, 0, 1, PrepareStale{Op: o, Desired: 1}).(Ack); ack.OK {
		t.Error("recovering replica accepted a stale mark")
	}
	if ack := h.call(t, 0, 1, PrepareReplace{Op: o, Value: []byte("b"), NewVersion: 1}).(Ack); ack.OK {
		t.Error("recovering replica accepted a replace")
	}
}

func TestRecoveringAcceptsEpochAndClearsFlag(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	h.item(1).Amnesia()
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	ack := h.call(t, 0, 1, PrepareEpoch{
		Op: o, Epoch: nodeset.New(0, 1), EpochNum: 1, Good: nodeset.New(0), MaxVersion: 0,
	}).(Ack)
	if !ack.OK {
		t.Fatalf("prepare-epoch refused: %s", ack.Reason)
	}
	h.call(t, 0, 1, Commit{Op: o})
	st := h.item(1).State()
	if st.Recovering || !st.Stale || st.EpochNum != 1 {
		t.Errorf("state after readmission = %+v", st)
	}
}

func TestRecoveringAnswersOffersWithAlreadyRecovering(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	h.item(1).Amnesia()
	o := h.item(0).NextOp()
	reply := h.call(t, 0, 1, PropagationOffer{Op: o, Version: 5}).(PropagationReply)
	if reply.Status != PropAlreadyRecovering {
		t.Errorf("offer reply = %+v", reply)
	}
}

func TestStateReplyCarriesRecovering(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	h.item(1).Amnesia()
	st := h.call(t, 0, 1, StateQuery{}).(StateReply)
	if !st.Recovering {
		t.Error("StateQuery did not report recovering")
	}
	// Group query too.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	reply, err := h.net.Call(ctx, 0, 1, GroupStateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if gr := reply.(GroupStateReply); !gr.States["x"].Recovering {
		t.Error("GroupStateQuery did not report recovering")
	}
}

func TestAmnesiaWhileHoldingPropagation(t *testing.T) {
	// Amnesia mid-propagation must not wedge: the stale source state and
	// propagation lock disappear with everything else.
	h := newHarness(t, 3, nil, Config{PropagationRetry: 5 * time.Millisecond})
	makeStale(t, h, []int{0}, []int{1}, Update{Data: []byte("x")}, 1)
	o := h.item(0).NextOp()
	reply := h.call(t, 0, 1, PropagationOffer{Op: o, Version: 1}).(PropagationReply)
	if reply.Status != PropPermitted {
		t.Fatalf("offer: %+v", reply)
	}
	h.item(1).Amnesia()
	// The transfer now fails cleanly (lock hold gone).
	ack := h.call(t, 0, 1, PropagationData{Op: o, FromVersion: 0, Updates: []Update{{Data: []byte("x")}}}).(Ack)
	if ack.OK {
		t.Error("propagation data applied to an amnesiac replica")
	}
}

// TestEnsureItemPublishesAfterInit: a replica made with a creation-time
// policy is never seen without it. Readers spin on Node.Item while the
// replica is made with an Amnesia init, as a restarted daemon's first touch
// does; every one of them must find it already recovering, never a current
// version-0 replica that a quorum could count.
func TestEnsureItemPublishesAfterInit(t *testing.T) {
	n := NewNode(0, transport.NewNetwork(), Config{})
	defer n.Close()
	members := nodeset.New(0, 1, 2)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("item-%d", i)
		var wg sync.WaitGroup
		seen := make(chan bool, 4)
		for r := 0; r < cap(seen); r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if it := n.Item(name); it != nil {
						seen <- it.Recovering()
						return
					}
					runtime.Gosched()
				}
			}()
		}
		it, created, err := n.EnsureItem(name, members, nil, (*Item).Amnesia)
		if err != nil || !created || !it.Recovering() {
			t.Fatalf("%s: created=%v err=%v recovering=%v", name, created, err, err == nil && it.Recovering())
		}
		if again, created, _ := n.EnsureItem(name, members, nil, func(*Item) { t.Error("init ran twice") }); again != it || created {
			t.Fatalf("%s: second EnsureItem made another replica", name)
		}
		wg.Wait()
		close(seen)
		for rec := range seen {
			if !rec {
				t.Fatalf("%s: a reader saw the replica before its init ran", name)
			}
		}
	}
}
