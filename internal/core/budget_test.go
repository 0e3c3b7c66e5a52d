package core

import (
	"context"
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
