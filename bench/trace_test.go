package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/transport"
)

var _ transport.AsyncSender = (*tracedNet)(nil) // one-way commits stay one-way

func sp(depth int, start, end int64) span { return span{depth: depth, Start: start, End: end} }

// TestLayerTimesParallelChildren: two handlers of one multicast overlap;
// the replica layer gets the union of their intervals, not the sum, and
// the three layers add up to the root.
func TestLayerTimesParallelChildren(t *testing.T) {
	spans := []span{
		sp(depthRoot, 0, 100),
		sp(depthNet, 10, 60),
		sp(depthHandler, 15, 40),
		sp(depthHandler, 20, 50),
	}
	got := layerTimes(spans)
	want := [numDepths]time.Duration{50, 15, 35}
	if got != want {
		t.Fatalf("layerTimes = %v, want %v", got, want)
	}
}

func TestLayerTimesSequentialRounds(t *testing.T) {
	spans := []span{
		sp(depthRoot, 0, 100),
		sp(depthNet, 10, 30), sp(depthHandler, 12, 20), sp(depthHandler, 21, 29),
		sp(depthNet, 40, 90), sp(depthHandler, 45, 85),
	}
	got := layerTimes(spans)
	want := [numDepths]time.Duration{30, 14, 56}
	if got != want {
		t.Fatalf("layerTimes = %v, want %v", got, want)
	}
}

// TestBudgetAddsUp: whatever the shape of the span tree — overlapping
// siblings, children poking out of their parent or the root — the layer
// times are non-negative and sum to the root's duration exactly.
func TestBudgetAddsUp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		rootEnd := int64(100 + rng.Intn(900))
		spans := []span{sp(depthRoot, 0, rootEnd)}
		for n := rng.Intn(12); n > 0; n-- {
			start := int64(rng.Intn(int(rootEnd))) - 20
			end := start + int64(rng.Intn(300))
			spans = append(spans, sp(1+rng.Intn(2), start, end))
		}
		var sum time.Duration
		for d, v := range layerTimes(spans) {
			if v < 0 {
				t.Fatalf("trial %d: layer %d has negative time %v in %+v", trial, d, v, spans)
			}
			sum += v
		}
		if sum != time.Duration(rootEnd) {
			t.Fatalf("trial %d: layers sum to %v, the root lasted %v: %+v", trial, sum, rootEnd, spans)
		}
	}
}

// TestTracedNetRecordsTree drives the decorator over a real simulated
// network: a root that multicasts to three handlers must record one net
// span under the root and three handler spans under the net span, and
// traffic without a root in its context must record nothing.
func TestTracedNetRecordsTree(t *testing.T) {
	tr := newTracer()
	netw := transport.NewNetwork()
	tn := &tracedNet{inner: netw, t: tr, layer: "transport"}
	for id := nodeset.ID(0); id < 4; id++ {
		tn.Register(id, func(_ context.Context, _ nodeset.ID, req transport.Message) (transport.Message, error) {
			time.Sleep(200 * time.Microsecond)
			return req, nil
		})
	}
	ctx := context.Background()
	if _, err := tn.Call(ctx, 0, 1, "untraced"); err != nil {
		t.Fatal(err)
	}
	var acc traceAcc
	err := tr.root(ctx, "core.Coordinator.Write", false, &acc, func(ctx context.Context) error {
		tn.MulticastFunc(ctx, 0, nodeset.Range(1, 4), "round", func(nodeset.ID, transport.Result) {})
		tn.SendAsync(ctx, 0, nodeset.New(1), "commit")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.ops != [2]int{0, 1} || acc.handlers != [2]int{0, 4} {
		t.Fatalf("ops %v handlers %v, want one write with four handler calls", acc.ops, acc.handlers)
	}
	var sum time.Duration
	for _, v := range acc.layer[1] {
		sum += v
	}
	if sum != acc.root[1] {
		t.Errorf("layers sum to %v, root is %v", sum, acc.root[1])
	}
	if acc.layer[1][depthHandler] < 400*time.Microsecond {
		t.Errorf("replica time %v, want at least the two sequential 200µs handler rounds", acc.layer[1][depthHandler])
	}
	if len(tr.kept) != 7 {
		t.Fatalf("%d spans kept, want root + 2 net + 4 handlers", len(tr.kept))
	}
	names := map[string]int{}
	for i, s := range tr.kept {
		names[s.Name]++
		if s.Op != 1 || s.End < s.Start {
			t.Errorf("span %d: %+v", i, s)
		}
		switch s.depth {
		case depthRoot:
			if s.Parent != -1 {
				t.Errorf("root has parent %d", s.Parent)
			}
		case depthNet:
			if tr.kept[s.Parent].depth != depthRoot {
				t.Errorf("net span %q hangs under depth %d", s.Name, tr.kept[s.Parent].depth)
			}
		case depthHandler:
			if tr.kept[s.Parent].depth != depthNet {
				t.Errorf("handler span %q hangs under depth %d", s.Name, tr.kept[s.Parent].depth)
			}
		}
	}
	if names["transport.MulticastFunc"] != 1 || names["transport.SendAsync"] != 1 || names["replica.string"] != 4 {
		t.Errorf("span names: %v", names)
	}
}
