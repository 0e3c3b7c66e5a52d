package replica

import (
	"testing"
	"time"

	"coterie/internal/nodeset"
)

// stagedCount returns the number of staged 2PC actions at it: one or none.
func stagedCount(it *Item) int {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.staged.op.IsZero() {
		return 0
	}
	return 1
}

// TestRefusedLockPrepareStagesNothing: the refusal is decided before the
// lock is taken, so the refusing member neither locks, queues nor stages
// anything for the refused operation, and tells the coordinator whom it
// lost to.
func TestRefusedLockPrepareStagesNothing(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	ops := agedOps(2)
	winner, loser := ops[0], ops[1]
	u := Update{Data: []byte("x")}

	if _, ok := h.call(t, 0, 1, LockPrepare{Op: winner, Update: u, NewVersion: 1, GoodSet: nodeset.New(1)}).(LockPrepareReply); !ok {
		t.Fatal("the older operation was not granted")
	}
	for _, msg := range []any{
		LockPrepare{Op: loser, Update: u, NewVersion: 1, GoodSet: nodeset.New(1)},
		LockRequest{Op: loser, Mode: LockWrite},
		LockRequest{Op: loser, Mode: LockRead},
	} {
		refusal, ok := h.call(t, 0, 1, msg).(LockRefused)
		if !ok || refusal.By != winner || refusal.State.Node != 1 {
			t.Fatalf("%T from the younger operation answered %+v, want a refusal by %v", msg, refusal, winner)
		}
	}
	it := h.item(1)
	if n := stagedCount(it); n != 1 {
		t.Errorf("%d staged actions, want only the winner's", n)
	}
	if it.lock.heldBy(time.Now(), loser, lockShared) || it.lock.holderCount(time.Now()) != 1 {
		t.Error("the refused operation holds the lock")
	}
	// The winner is unaffected: it commits what it staged.
	if ack := h.call(t, 0, 1, Commit{Op: winner}).(Ack); !ack.OK {
		t.Fatalf("commit: %s", ack.Reason)
	}
	if _, v := it.Value(); v != 1 {
		t.Errorf("version %d after the winner's commit, want 1", v)
	}
}

// TestRefusedRoundSpeculativeStagingCleaned: the members of a refused
// round that did grant have staged the update speculatively and hold
// their lock pinned. The coordinator's one-way Abort cleans them; if that
// message is lost, the resolver's version-gated termination query finds
// the abort the coordinator logged before sending it.
func TestRefusedRoundSpeculativeStagingCleaned(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 10 * time.Millisecond,
		ResolveAfter:    30 * time.Millisecond,
	}
	for name, abortArrives := range map[string]bool{"abort delivered": true, "abort lost": false} {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 2, nil, cfg)
			coord, member := h.item(0), h.item(1)
			o := coord.NextOp()
			reply := h.call(t, 0, 1, LockPrepare{Op: o, Update: Update{Data: []byte("x")}, NewVersion: 1, GoodSet: nodeset.New(1)}).(LockPrepareReply)
			if !reply.Prepared || stagedCount(member) != 1 {
				t.Fatal("the granting member did not stage speculatively")
			}
			// Another member refused: the coordinator logs the abort, then
			// releases one-way.
			coord.RecordDecision(o, false)
			if abortArrives {
				h.call(t, 0, 1, Abort{Op: o})
			}
			waitFor(t, 2*time.Second, func() bool {
				return stagedCount(member) == 0 && member.lock.holderCount(time.Now()) == 0
			}, "speculative staging of a refused round never cleaned")
			if _, v := member.Value(); v != 0 {
				t.Errorf("a refused round's update was applied (version %d)", v)
			}
		})
	}
}
