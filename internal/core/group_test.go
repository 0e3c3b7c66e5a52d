package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

func newTestGroup(t *testing.T, n int, items []string) *Group {
	t.Helper()
	g, err := NewGroup(n, items, nil, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestGroupValidation(t *testing.T) {
	if _, err := NewGroup(0, []string{"a"}, nil, Options{}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewGroup(3, nil, nil, Options{}); err == nil {
		t.Error("no items accepted")
	}
	if _, err := NewGroup(3, []string{"a", "a"}, nil, Options{}); err == nil {
		t.Error("duplicate items accepted")
	}
}

func TestGroupIndependentItems(t *testing.T) {
	g := newTestGroup(t, 9, []string{"alpha", "beta"})
	ctx := ctxT(t)
	if _, err := g.Coordinator("alpha", 0).Write(ctx, replica.Update{Data: []byte("A")}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Coordinator("beta", 3).Write(ctx, replica.Update{Data: []byte("B")}); err != nil {
		t.Fatal(err)
	}
	va, _, err := g.Coordinator("alpha", 8).Read(ctx)
	if err != nil || string(va) != "A" {
		t.Errorf("alpha = %q, %v", va, err)
	}
	vb, _, err := g.Coordinator("beta", 8).Read(ctx)
	if err != nil || string(vb) != "B" {
		t.Errorf("beta = %q, %v", vb, err)
	}
}

func TestGroupInitialValues(t *testing.T) {
	g, err := NewGroup(4, []string{"x", "y"}, map[string][]byte{"x": []byte("seed")}, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	v, _ := g.Replica("x", 0).Value()
	if string(v) != "seed" {
		t.Errorf("x = %q", v)
	}
	if v, _ := g.Replica("y", 0).Value(); len(v) != 0 {
		t.Errorf("y = %q", v)
	}
}

func TestGroupCheckEpochsAdaptsAllItems(t *testing.T) {
	items := []string{"a", "b", "c"}
	g := newTestGroup(t, 9, items)
	ctx := ctxT(t)
	g.Crash(4)
	results, err := g.CheckEpochs(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range items {
		res, ok := results[item]
		if !ok || !res.Changed || res.Epoch.Contains(4) {
			t.Errorf("item %q: %+v (ok=%v)", item, res, ok)
		}
	}
	// Writes proceed under the new epochs.
	for _, item := range items {
		if _, err := g.Coordinator(item, 0).Write(ctx, replica.Update{Data: []byte(item)}); err != nil {
			t.Errorf("write %q: %v", item, err)
		}
	}
}

// TestGroupPollAmortization verifies the paper's Section 2 claim: polling k
// items on the same nodes costs one round, not k rounds.
func TestGroupPollAmortization(t *testing.T) {
	const items = 8
	names := make([]string, items)
	for i := range names {
		names[i] = fmt.Sprintf("item-%d", i)
	}
	g := newTestGroup(t, 9, names)
	ctx := ctxT(t)

	// No failures: a group check is pure polling.
	g.Net.ResetStats()
	if _, err := g.CheckEpochs(ctx, 0); err != nil {
		t.Fatal(err)
	}
	groupMsgs := g.Net.Stats().Messages

	// Per-item checks poll every node once per item.
	g.Net.ResetStats()
	for _, name := range names {
		if _, err := g.Coordinator(name, 0).CheckEpoch(ctx); err != nil {
			t.Fatal(err)
		}
	}
	perItemMsgs := g.Net.Stats().Messages

	if groupMsgs*items > perItemMsgs+8 {
		t.Errorf("group poll %d msgs, per-item %d msgs: no amortization", groupMsgs, perItemMsgs)
	}
	// Exact expectation: 2 messages per reachable node per round.
	if groupMsgs != 18 {
		t.Errorf("group poll = %d msgs, want 18", groupMsgs)
	}
	if perItemMsgs != 18*items {
		t.Errorf("per-item polls = %d msgs, want %d", perItemMsgs, 18*items)
	}
}

func TestGroupCheckEpochsUnknownInitiator(t *testing.T) {
	g := newTestGroup(t, 3, []string{"a"})
	if _, err := g.CheckEpochs(ctxT(t), 99); err == nil {
		t.Error("unknown initiator accepted")
	}
}

func TestGroupCheckEpochsPartialFailure(t *testing.T) {
	g := newTestGroup(t, 9, []string{"a", "b"})
	ctx := ctxT(t)
	// Make item "a" unrecoverable: crash a column with no epoch change,
	// then crash more so no write quorum of the original epoch remains.
	for _, id := range []nodeset.ID{0, 1, 3, 4, 6, 7} {
		g.Crash(id)
	}
	// Up = {2,5,8} = column 3 of the 3x3 grid: that IS a write quorum, so
	// actually both items adapt. Crash one more so the column breaks.
	g.Crash(8)
	results, err := g.CheckEpochs(ctx, 2)
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v", err)
	}
	if len(results) != 0 {
		t.Errorf("results = %+v", results)
	}
}

func TestGroupRestartRejoins(t *testing.T) {
	g := newTestGroup(t, 9, []string{"a", "b"})
	ctx := ctxT(t)
	g.Crash(5)
	if _, err := g.CheckEpochs(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for _, item := range []string{"a", "b"} {
		if _, err := g.Coordinator(item, 0).Write(ctx, replica.Update{Data: []byte("w-" + item)}); err != nil {
			t.Fatal(err)
		}
	}
	g.Restart(5)
	if _, err := g.CheckEpochs(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for _, item := range []string{"a", "b"} {
		waitUntil(t, 5*time.Second, func() bool {
			st := g.Replica(item, 5).State()
			return !st.Stale && st.Version == 1
		}, "item "+item+" never caught up on the rejoined node")
	}
}

// TestStaleBacklogCatchesUpPerItem: a node that is down while 256 items each
// take a write owes a backlog of 256 propagations once it is readmitted, one
// per item and all toward the same target. The per-item workers bring every
// replica of every item to the last version with no stale mark, within a
// bound. Asserted on replica state, not through reads, which the other
// replicas could serve.
func TestStaleBacklogCatchesUpPerItem(t *testing.T) {
	const items, down = 256, nodeset.ID(5)
	names := make([]string, items)
	for i := range names {
		names[i] = fmt.Sprintf("item-%03d", i)
	}
	g := newTestGroup(t, 9, names)
	ctx := ctxT(t)
	g.Crash(down)
	if _, err := g.CheckEpochs(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := g.Coordinator(name, 0).Write(ctx, replica.Update{Data: []byte(name)}); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	g.Restart(down)
	if st := g.Replica(names[items-1], down).State(); st.Version != 0 {
		t.Fatalf("node %v took a write while down: version %d", down, st.Version)
	}
	if _, err := g.CheckEpochs(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var behind []string
		for _, name := range names {
			for _, id := range g.Members.IDs() {
				if st := g.Replica(name, id).State(); st.Stale || st.Version != 1 {
					behind = append(behind, fmt.Sprintf("%s@%v (version %d, stale %v)", name, id, st.Version, st.Stale))
				}
			}
		}
		if len(behind) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas still behind 10 s after readmission, first %v", len(behind), behind[:min(len(behind), 8)])
		}
	}
}
