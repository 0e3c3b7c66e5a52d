package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// perOp measures f as testing.AllocsPerRun does, and the bytes it
// allocates beside the objects.
func perOp(runs int, f func()) (objects float64, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestOperationAllocationBudget holds a whole operation to what outlives it,
// on a cluster built as the benchmark's sim workloads build theirs: nine
// nodes on a simulated network with a registry, a 256-trace flight
// recorder, the hint strategy and write-through. An uncontended write of 16
// bytes into a 256-byte item allocates the update's copy at each of the five
// quorum members that stage it and at each of the four bystanders its push
// reaches, and the commit's and the push's one-way messages, which may
// outlive the operation (13 objects); a read allocates the value it returns.
// The rounds themselves — contexts, requests, replies, collectors — are the
// coordinator's and the network's scratch: 13 objects and 336 bytes a write,
// one object and 256 bytes a read. Before they were, a write made 42 objects
// (4.5 KB) and a read 14 (1.9 KB).
func TestOperationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	reg := obs.New()
	reg.SetFlight(obs.NewFlightRecorder(256))
	net := transport.NewNetwork(transport.WithSeed(1), transport.WithObs(reg))
	members := nodeset.Range(0, 9)
	opts := Options{CallTimeout: 250 * time.Millisecond, Obs: reg, Strategy: StrategyHint,
		Replica: replica.Config{LockLease: time.Second, Obs: reg}}
	initial := make([]byte, 256)
	var co *Coordinator
	for _, id := range members.IDs() {
		node := replica.NewNode(id, net, opts.Replica)
		defer node.Close()
		rep, err := node.AddItem("item", members, initial)
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			co = NewCoordinator(rep, net, members, opts)
		}
	}
	ctx := context.Background()
	u := replica.Update{Offset: 100, Data: make([]byte, 16)}
	write := func() {
		if _, err := co.Write(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if value, _, err := co.Read(ctx); err != nil || len(value) != 256 {
			t.Fatalf("read %d bytes: %v", len(value), err)
		}
	}
	// Past a full decision ring (maxDecisions), which grows a chunk at a
	// time until then.
	for i := 0; i < 10000; i++ {
		write()
	}
	for _, tc := range []struct {
		name    string
		op      func()
		objects float64
		bytes   uint64
	}{
		{"write", write, 14, 512},
		{"read", read, 4, 384},
	} {
		objects, bytes := perOp(2000, tc.op)
		t.Logf("%s: %.2f objects, %d bytes", tc.name, objects, bytes)
		if objects > tc.objects || bytes > tc.bytes {
			t.Errorf("%s allocates %.2f objects, %d bytes; want at most %.0f, %d", tc.name, objects, bytes, tc.objects, tc.bytes)
		}
	}
	if got := reg.Counter("core_spec_prepare_hit_total").Load(); got < 12000 {
		t.Errorf("%d writes took the one-round path, want all of them", got)
	}
}

// TestGroupConstructionFootprint holds what setting a cluster up costs, on
// the benchmark's sim shape built through NewGroup: a registry with a
// 256-trace flight recorder, nine nodes, eight items. It was 757 KB when
// every ring slot had room for a whole Trace, every endpoint seeded a
// latency source at Register and every coordinator resolved its own
// counters, and 164 KB while Register made every endpoint's call-time cell;
// it is ≈ 146 KB in 489 objects now, most of it the 72 replicas. Each of the
// 72 coordinators embeds its write combiner: kept behind a pointer, the
// combiner cost 144 objects more. The coordinators share one metric bundle,
// and so do coordinators built without a registry.
func TestGroupConstructionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	const (
		limit   = 160 << 10 // eager call-time cells are 24 KB more, eager latency sources 44 KB
		objects = 489       // an allocation per coordinator is 72 more
	)
	items := make([]string, 8)
	for i := range items {
		items[i] = fmt.Sprintf("item-%d", i)
	}
	build := func(opts Options) *Group {
		g, err := NewGroup(9, items, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least, made := uint64(math.MaxUint64), uint64(0)
	var measured *Group
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reg := obs.New()
		reg.SetFlight(obs.NewFlightRecorder(256))
		measured = build(Options{Obs: reg})
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b < least {
			least, made = b, after.Mallocs-before.Mallocs
		}
	}
	t.Logf("9 nodes, 8 items, a 256-trace recorder: %d bytes in %d objects", least, made)
	if least > limit || made > objects {
		t.Errorf("setting the cluster up allocated %d bytes in %d objects, want at most %d in %d", least, made, limit, objects)
	}
	for _, g := range []*Group{measured, build(Options{})} {
		want := g.Coordinator(items[0], 0).metrics
		for _, item := range items {
			for _, id := range g.Members.IDs() {
				if g.Coordinator(item, id).metrics != want {
					t.Fatalf("coordinator %v of %s resolved its own metric bundle", id, item)
				}
			}
		}
	}
}
