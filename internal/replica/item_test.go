package replica

import (
	"context"
	"strings"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/transport"
)

// harness wires n nodes, each replicating item "x" with the given initial
// value.
type harness struct {
	net     *transport.Network
	nodes   []*Node
	members nodeset.Set
}

func newHarness(t *testing.T, n int, initial []byte, cfg Config) *harness {
	t.Helper()
	h := &harness{net: transport.NewNetwork(), members: nodeset.Range(0, nodeset.ID(n))}
	for i := 0; i < n; i++ {
		node := NewNode(nodeset.ID(i), h.net, cfg)
		if _, err := node.AddItem("x", h.members, initial); err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, node)
	}
	t.Cleanup(func() {
		for _, nd := range h.nodes {
			nd.Close()
		}
	})
	return h
}

func (h *harness) item(i int) *Item { return h.nodes[i].Item("x") }

// call sends a message from node `from` to node `to` for item "x", and
// returns the reply as a value.
func (h *harness) call(t *testing.T, from, to int, msg any) transport.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	reply, err := h.net.Call(ctx, nodeset.ID(from), nodeset.ID(to), Envelope{Item: "x", Msg: msg})
	if err != nil {
		t.Fatalf("call %v: %v", msg, err)
	}
	return valueOf(reply)
}

// valueOf copies a reply a handler answered into a slot, so that a test can
// keep it past the slot's next use; other replies come back as they are.
func valueOf(reply transport.Message) transport.Message {
	switch r := reply.(type) {
	case *StateReply:
		return *r
	case *LockPrepareReply:
		return *r
	case *LockRefused:
		return *r
	case *SnapReply:
		return SnapReply{State: r.State, Value: append([]byte(nil), r.Value...)}
	}
	return reply
}

func TestStateQueryInitialState(t *testing.T) {
	h := newHarness(t, 3, []byte("init"), Config{})
	reply := h.call(t, 0, 1, StateQuery{})
	s := reply.(StateReply)
	if s.Node != 1 || s.Version != 0 || s.Stale || s.EpochNum != 0 || !s.Epoch.Equal(h.members) {
		t.Errorf("state = %+v", s)
	}
}

func TestLockRequestReturnsState(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	o := h.item(0).NextOp()
	reply := h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if s := reply.(StateReply); s.Node != 1 {
		t.Errorf("state = %+v", s)
	}
	if !h.item(1).lock.heldBy(time.Now(), o, lockExclusive) {
		t.Error("lock not held after LockRequest")
	}
	// Idempotent re-lock.
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 1, Abort{Op: o})
	if h.item(1).lock.holderCount(time.Now()) != 0 {
		t.Error("lock not released by Abort")
	}
}

func TestWriteCommitFlow(t *testing.T) {
	h := newHarness(t, 3, []byte("aaaa"), Config{})
	o := h.item(0).NextOp()
	// Phase 1: lock nodes 0,1; node 2 will be marked stale.
	h.call(t, 0, 0, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 2, LockRequest{Op: o, Mode: LockWrite})

	u := Update{Offset: 1, Data: []byte("XX")}
	for _, target := range []int{0, 1} {
		ack := h.call(t, 0, target, PrepareUpdate{Op: o, Update: u, NewVersion: 1}).(Ack)
		if !ack.OK {
			t.Fatalf("prepare refused: %s", ack.Reason)
		}
	}
	ack := h.call(t, 0, 2, PrepareStale{Op: o, Desired: 1}).(Ack)
	if !ack.OK {
		t.Fatalf("prepare-stale refused: %s", ack.Reason)
	}
	for target := 0; target < 3; target++ {
		if ack := h.call(t, 0, target, Commit{Op: o}).(Ack); !ack.OK {
			t.Fatalf("commit refused at %d: %s", target, ack.Reason)
		}
	}

	for _, target := range []int{0, 1} {
		v, ver := h.item(target).Value()
		if string(v) != "aXXa" || ver != 1 {
			t.Errorf("node %d: value %q version %d", target, v, ver)
		}
	}
	s2 := h.item(2).State()
	if !s2.Stale || s2.Desired != 1 || s2.Version != 0 {
		t.Errorf("node 2 state = %+v", s2)
	}
}

func TestPrepareUpdateRefusals(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	o := h.item(0).NextOp()
	u := Update{Data: []byte("a")}

	// Without lock.
	ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: u, NewVersion: 1}).(Ack)
	if ack.OK {
		t.Error("prepare without lock accepted")
	}
	// With lock but wrong version.
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	ack = h.call(t, 0, 1, PrepareUpdate{Op: o, Update: u, NewVersion: 5}).(Ack)
	if ack.OK || !strings.Contains(ack.Reason, "version") {
		t.Errorf("wrong-version prepare: %+v", ack)
	}
	// Invalid update.
	ack = h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Offset: -1}, NewVersion: 1}).(Ack)
	if ack.OK {
		t.Error("invalid update accepted")
	}
	// Stale replica refuses updates.
	h.call(t, 0, 1, PrepareStale{Op: o, Desired: 3})
	h.call(t, 0, 1, Commit{Op: o})
	o2 := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o2, Mode: LockWrite})
	ack = h.call(t, 0, 1, PrepareUpdate{Op: o2, Update: u, NewVersion: 1}).(Ack)
	if ack.OK || !strings.Contains(ack.Reason, "stale") {
		t.Errorf("stale prepare: %+v", ack)
	}
}

func TestAbortDiscardsStaged(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("z")}, NewVersion: 1})
	h.call(t, 0, 1, Abort{Op: o})
	if _, ver := h.item(1).Value(); ver != 0 {
		t.Errorf("aborted write applied: version %d", ver)
	}
	if h.item(1).lock.holderCount(time.Now()) != 0 {
		t.Error("lock held after abort")
	}
}

func TestCommitWithoutStagedJustReleases(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockRead})
	ack := h.call(t, 0, 1, Commit{Op: o}).(Ack)
	if !ack.OK || h.item(1).lock.holderCount(time.Now()) != 0 {
		t.Error("lock-only commit failed to release")
	}
}

func TestFetchValueRequiresLock(t *testing.T) {
	h := newHarness(t, 2, []byte("v"), Config{})
	o := h.item(0).NextOp()
	ctx := context.Background()
	_, err := h.net.Call(ctx, 0, 1, Envelope{Item: "x", Msg: FetchValue{Op: o}})
	if err == nil {
		t.Error("fetch without lock succeeded")
	}
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockRead})
	reply := h.call(t, 0, 1, FetchValue{Op: o})
	if vr := reply.(ValueReply); string(vr.Value) != "v" || vr.Version != 0 {
		t.Errorf("value reply = %+v", vr)
	}
}

func TestPrepareEpochFlow(t *testing.T) {
	h := newHarness(t, 3, nil, Config{})
	newEpoch := nodeset.New(0, 1)
	o := h.item(0).NextOp()
	for _, target := range []int{0, 1} {
		h.call(t, 0, target, LockRequest{Op: o, Mode: LockWrite})
		ack := h.call(t, 0, target, PrepareEpoch{
			Op: o, Epoch: newEpoch, EpochNum: 1, Good: nodeset.New(0), MaxVersion: 0,
		}).(Ack)
		if !ack.OK {
			t.Fatalf("prepare-epoch refused at %d: %s", target, ack.Reason)
		}
	}
	for _, target := range []int{0, 1} {
		h.call(t, 0, target, Commit{Op: o})
	}
	s0, s1 := h.item(0).State(), h.item(1).State()
	if s0.EpochNum != 1 || !s0.Epoch.Equal(newEpoch) || s0.Stale {
		t.Errorf("node 0 state = %+v", s0)
	}
	if s1.EpochNum != 1 || !s1.Stale || s1.Desired != 0 {
		t.Errorf("node 1 state = %+v", s1)
	}
	// Node 2 untouched.
	if s2 := h.item(2).State(); s2.EpochNum != 0 {
		t.Errorf("node 2 state = %+v", s2)
	}
}

func TestPrepareEpochRefusals(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	// Stale epoch number.
	ack := h.call(t, 0, 1, PrepareEpoch{Op: o, Epoch: h.members, EpochNum: 0, Good: h.members}).(Ack)
	if ack.OK {
		t.Error("non-advancing epoch accepted")
	}
	// Node not in proposed epoch.
	ack = h.call(t, 0, 1, PrepareEpoch{Op: o, Epoch: nodeset.New(0), EpochNum: 1, Good: nodeset.New(0)}).(Ack)
	if ack.OK {
		t.Error("epoch excluding the node accepted")
	}
}

func TestNodeDispatch(t *testing.T) {
	net := transport.NewNetwork()
	n0 := NewNode(0, net, Config{})
	n1 := NewNode(1, net, Config{})
	defer n0.Close()
	defer n1.Close()
	members := nodeset.New(0, 1)
	if _, err := n1.AddItem("a", members, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.AddItem("b", members, []byte("bee")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Unknown item.
	if _, err := net.Call(ctx, 0, 1, Envelope{Item: "zzz", Msg: StateQuery{}}); err == nil {
		t.Error("unknown item accepted")
	}
	// Non-envelope message.
	if _, err := net.Call(ctx, 0, 1, "garbage"); err == nil {
		t.Error("non-envelope accepted")
	}
	// Unknown message type inside envelope.
	if _, err := net.Call(ctx, 0, 1, Envelope{Item: "a", Msg: 42}); err == nil {
		t.Error("unknown message type accepted")
	}
	// Duplicate item.
	if _, err := n1.AddItem("a", members, nil); err == nil {
		t.Error("duplicate item accepted")
	}
	// Node must be a member.
	if _, err := n0.AddItem("c", nodeset.New(1), nil); err == nil {
		t.Error("non-member AddItem accepted")
	}
	if len(n1.Items()) != 2 {
		t.Errorf("Items = %v", n1.Items())
	}
	if n1.Self() != 1 {
		t.Errorf("Self = %v", n1.Self())
	}
}

func TestLockLeaseFreesAbandonedOperation(t *testing.T) {
	h := newHarness(t, 2, nil, Config{LockLease: 40 * time.Millisecond})
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	// The coordinator "crashes" here; a later operation that is allowed to
	// wait for it (an older one) must get through once the lease expires.
	o2 := olderOp(h.item(0), o)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := h.net.Call(ctx, 0, 1, Envelope{Item: "x", Msg: LockRequest{Op: o2, Mode: LockWrite}}); err != nil {
		t.Fatalf("lock after lease expiry: %v", err)
	}
	// The abandoned op's prepare must now be refused.
	ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("a")}, NewVersion: 1}).(Ack)
	if ack.OK {
		t.Error("prepare accepted after lease expiry and re-grant")
	}
}

// olderOp mints operations at it until one precedes than in the conflict
// order, so that it queues behind than instead of being refused.
func olderOp(it *Item, than OpID) OpID {
	for {
		if o := it.NextOp(); o.Older(than) {
			return o
		}
	}
}
