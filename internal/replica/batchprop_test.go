package replica

import (
	"bytes"
	"context"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

func ctxT2(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// batchInitial is every harness item's first value: large enough that a
// few logged one-byte updates cost less than the value, so the store keeps
// them and propagation ships updates rather than a snapshot.
var batchInitial = bytes.Repeat([]byte("12345678"), 32)

// newBatchHarness builds n nodes each replicating every named item.
func newBatchHarness(t *testing.T, n int, items []string, cfg Config) (*transport.Network, []*Node) {
	t.Helper()
	net := transport.NewNetwork()
	members := nodeset.Range(0, nodeset.ID(n))
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(nodeset.ID(i), net, cfg)
		for _, name := range items {
			if _, err := nodes[i].AddItem(name, members, batchInitial); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return net, nodes
}

// writeItem runs a manual 2PC for one item: good nodes apply newVersion,
// stale nodes are marked stale. withStaleSet controls whether the commit
// triggers the good nodes' automatic propagation (StaleSet carried in the
// prepare) or leaves propagation to be driven explicitly by the test.
func writeItem(t *testing.T, h *harness2, item string, good, stale []int, u Update, newVersion uint64, withStaleSet bool) {
	t.Helper()
	var staleSet, goodSet nodeset.Set
	for _, s := range stale {
		staleSet.Add(nodeset.ID(s))
	}
	for _, g := range good {
		goodSet.Add(nodeset.ID(g))
	}
	o := h.nodes[good[0]].Item(item).NextOp()
	for _, g := range good {
		h.call(t, good[0], g, item, LockRequest{Op: o, Mode: LockWrite})
	}
	for _, s := range stale {
		h.call(t, good[0], s, item, LockRequest{Op: o, Mode: LockWrite})
	}
	prep := PrepareUpdate{Op: o, Update: u, NewVersion: newVersion, GoodSet: goodSet}
	if withStaleSet {
		prep.StaleSet = staleSet
	}
	for _, g := range good {
		if ack := h.call(t, good[0], g, item, prep).(Ack); !ack.OK {
			t.Fatalf("prepare %s at %d: %s", item, g, ack.Reason)
		}
	}
	for _, s := range stale {
		if ack := h.call(t, good[0], s, item, PrepareStale{Op: o, Desired: newVersion, GoodSet: goodSet}).(Ack); !ack.OK {
			t.Fatalf("prepare-stale %s at %d: %s", item, s, ack.Reason)
		}
	}
	for _, n := range append(append([]int{}, good...), stale...) {
		if ack := h.call(t, good[0], n, item, Commit{Op: o}).(Ack); !ack.OK {
			t.Fatalf("commit %s at %d: %s", item, n, ack.Reason)
		}
	}
}

type harness2 struct {
	net   *transport.Network
	nodes []*Node
}

func (h *harness2) call(t *testing.T, from, to int, item string, msg any) transport.Message {
	t.Helper()
	reply, err := h.net.Call(ctxT2(t), nodeset.ID(from), nodeset.ID(to), Envelope{Item: item, Msg: msg})
	if err != nil {
		t.Fatalf("call %v: %v", msg, err)
	}
	return reply
}

// TestBatchPropagateOnceCatchesUp drives one batched round by hand: k
// items stale on the target, the dispatcher's pending set primed, one
// batchPropagateOnce call. All k replicas must come current in that single
// round (one offer exchange, one transfer exchange) and the pending set
// must drain.
func TestBatchPropagateOnceCatchesUp(t *testing.T) {
	reg := obs.New()
	items := []string{"a", "b", "c"}
	net, nodes := newBatchHarness(t, 2, items, Config{Obs: reg})
	h := &harness2{net: net, nodes: nodes}

	for i, name := range items {
		writeItem(t, h, name, []int{0}, []int{1}, Update{Offset: i, Data: []byte{byte('A' + i)}}, 1, false)
	}
	for _, name := range items {
		if s := nodes[1].Item(name).State(); !s.Stale {
			t.Fatalf("item %s not stale on target", name)
		}
	}

	// Suppress the on-demand worker so the round runs exactly once, under
	// test control.
	nodes[0].bpMu.Lock()
	nodes[0].bpRunning = true
	nodes[0].bpMu.Unlock()
	for _, name := range items {
		nodes[0].enqueueBatchPropagation(name, nodeset.New(1))
	}

	var sc bpScratch
	nodes[0].batchPropagateOnce(1, &sc)

	for i, name := range items {
		s := nodes[1].Item(name).State()
		if s.Stale || s.Version != 1 {
			t.Errorf("item %s after round: %+v", name, s)
		}
		v, _ := nodes[1].Item(name).Value()
		want := bytes.Clone(batchInitial)
		want[i] = byte('A' + i)
		if string(v) != string(want) {
			t.Errorf("item %s value %q, want %q", name, v, want)
		}
	}
	if pending := nodes[0].PendingBatchPropagation(1); len(pending) != 0 {
		t.Errorf("pending after round: %v", pending)
	}
	if got := reg.Counter("replica_batch_prop_rounds_total").Load(); got != 1 {
		t.Errorf("rounds = %d, want 1", got)
	}
	if got := reg.Counter("replica_batch_prop_items_total").Load(); got != uint64(len(items)) {
		t.Errorf("items = %d, want %d", got, len(items))
	}
	nodes[0].bpMu.Lock()
	nodes[0].bpRunning = false
	nodes[0].bpMu.Unlock()
}

// TestHandleBatchOfferStatuses: a batched offer must answer per entry with
// exactly the single-item handler's semantics — permitted for a stale
// replica, i-am-current for a current one, and i-am-current (nothing to
// do) for an item the node does not replicate.
func TestHandleBatchOfferStatuses(t *testing.T) {
	net, nodes := newBatchHarness(t, 2, []string{"a", "b"}, Config{})
	h := &harness2{net: net, nodes: nodes}
	// Source-only item: the target has no replica of it.
	if _, err := nodes[0].AddItem("zz", nodeset.New(0), []byte("z")); err != nil {
		t.Fatal(err)
	}
	writeItem(t, h, "a", []int{0}, []int{1}, Update{Data: []byte("A")}, 1, false)

	offer := BatchPropagationOffer{Items: []ItemOffer{
		{Item: "a", Op: nodes[0].Item("a").NextOp(), Version: 1},
		{Item: "b", Op: nodes[0].Item("b").NextOp(), Version: 0},
		{Item: "zz", Op: nodes[0].Item("zz").NextOp(), Version: 0},
	}}
	reply, err := net.Call(ctxT2(t), 0, 1, offer)
	if err != nil {
		t.Fatal(err)
	}
	br := reply.(BatchPropagationReply)
	if len(br.Items) != 3 {
		t.Fatalf("reply has %d entries: %+v", len(br.Items), br)
	}
	byItem := map[string]ItemOfferReply{}
	for _, ir := range br.Items {
		byItem[ir.Item] = ir
	}
	if r := byItem["a"]; r.Status != PropPermitted || r.TargetVersion != 0 {
		t.Errorf("stale item reply = %+v, want permitted from 0", r)
	}
	if r := byItem["b"]; r.Status != PropIAmCurrent {
		t.Errorf("current item reply = %+v, want i-am-current", r)
	}
	if r := byItem["zz"]; r.Status != PropIAmCurrent {
		t.Errorf("unknown item reply = %+v, want i-am-current", r)
	}
}

// TestBatchPropagationEndToEnd: with Config.PropagationBatch set, a commit
// that leaves replicas stale must drive the node-level dispatcher
// automatically until every target is current again.
func TestBatchPropagationEndToEnd(t *testing.T) {
	reg := obs.New()
	items := []string{"a", "b", "c", "d"}
	cfg := Config{
		PropagationBatch:       true,
		Obs:                    reg,
		PropagationRetry:       5 * time.Millisecond,
		PropagationCallTimeout: 200 * time.Millisecond,
	}
	net, nodes := newBatchHarness(t, 3, items, cfg)
	h := &harness2{net: net, nodes: nodes}

	for i, name := range items {
		writeItem(t, h, name, []int{0}, []int{1, 2}, Update{Offset: i, Data: []byte("X")}, 1, true)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, target := range []int{1, 2} {
			for _, name := range items {
				if s := nodes[target].Item(name).State(); s.Stale || s.Version != 1 {
					return false
				}
			}
		}
		return true
	}, "targets did not catch up via batched propagation")
	if got := reg.Counter("replica_batch_prop_rounds_total").Load(); got == 0 {
		t.Error("no batched rounds recorded")
	}
	if got := reg.Counter("replica_batch_prop_items_total").Load(); got < uint64(len(items)) {
		t.Errorf("items offered = %d, want >= %d", got, len(items))
	}
}

// TestCaptureDataDoesNotAllocate gates the batched transfer's assembly
// path: capturing a permitted item's update run into warmed scratch must
// not allocate (the update headers share the scratch backing; the data
// bytes are the store's own committed log entries, shipped by reference).
func TestCaptureDataDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race")
	}
	net, nodes := newBatchHarness(t, 2, []string{"a"}, Config{})
	h := &harness2{net: net, nodes: nodes}
	for v := uint64(1); v <= 3; v++ {
		writeItem(t, h, "a", []int{0, 1}, nil, Update{Offset: int(v), Data: []byte("w")}, v, false)
	}
	it := nodes[0].Item("a")
	op := it.NextOp()
	var sc bpScratch
	if _, ok := nodes[0].captureData(it, op, 1, &sc); !ok {
		t.Fatal("warm-up capture refused")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sc.updates = sc.updates[:0]
		d, ok := nodes[0].captureData(it, op, 1, &sc)
		if !ok || d.HasSnapshot || len(d.Updates) != 2 {
			panic("unexpected capture result")
		}
	})
	if allocs != 0 {
		t.Fatalf("captureData allocates %.1f per call, want 0", allocs)
	}
}
