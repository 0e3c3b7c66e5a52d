package replica

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// liveHeapGrowth returns how many bytes of live heap build leaves behind,
// the way the benchmark reads live_heap_mb: HeapAlloc after a collection —
// two here, since one cycle leaves standing what was allocated while it ran.
// What build returns is kept alive across the second reading.
func liveHeapGrowth(build func() any) int64 {
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := liveHeap()
	kept := build()
	after := liveHeap()
	runtime.KeepAlive(kept)
	return after - before
}

// leastHeapGrowth is the least liveHeapGrowth of build(0), build(1) and
// build(2), each of which must build afresh what it measures. What else the
// process allocates in a window only adds to a reading: above all the
// runtime's own M (≈ 5 KB of struct, g0 and signal stacks and profiling
// buffer, never freed) when a collection's start-the-world starts a thread
// the process did not have yet, which a loaded host makes likelier.
func leastHeapGrowth(build func(i int) any) int64 {
	least := int64(math.MaxInt64)
	for i := range 3 {
		least = min(least, liveHeapGrowth(func() any { return build(i) }))
	}
	return least
}

// TestColdItemFootprint: a replica nobody has written to costs its value
// plus at most 768 bytes — the Item, with room for one staged action inline,
// its name and its entry in the node's map — in two allocations. What the
// items of a node have in common (configuration, metrics, the lock's lease
// and counters, the version-0 value) is the node's, not copied into each.
func TestColdItemFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap and allocation counts are not meaningful under -race")
	}
	const items, size, slack = 4096, 1024, 768
	node := NewNode(0, transport.NewNetwork(), Config{})
	defer node.Close()
	members, initial := nodeset.New(0, 1, 2), make([]byte, size)
	grew := liveHeapGrowth(func() any {
		for i := 0; i < items; i++ {
			if _, created, err := node.EnsureItem(fmt.Sprintf("key-%06d", i), members, initial, nil); err != nil || !created {
				t.Fatalf("EnsureItem %d: created=%v err=%v", i, created, err)
			}
		}
		return node
	})
	per := grew / items
	t.Logf("a cold %d-byte item costs %d bytes of live heap (Item is %d bytes, StateReply %d)",
		size, per, unsafe.Sizeof(Item{}), unsafe.Sizeof(StateReply{}))
	if per > size+slack {
		t.Errorf("a cold item costs %d bytes, want at most %d", per, size+slack)
	}
	var sink *Item
	if allocs := testing.AllocsPerRun(200, func() { sink = newItem(node, "x", members, initial) }); allocs > 2 {
		t.Errorf("newItem makes %.0f allocations, want at most 2 (Item, value)", allocs)
	}
	runtime.KeepAlive(sink)
}

// TestNodesShareTheRegistryBundles: the replica counters and the lock
// environment are resolved once per registry (and lease), not once per
// node, and an item's lock reads its node's.
func TestNodesShareTheRegistryBundles(t *testing.T) {
	for _, reg := range []*obs.Registry{obs.New(), obs.Nop} {
		net := transport.NewNetwork()
		a := NewNode(0, net, Config{Obs: reg, LockLease: time.Second})
		b := NewNode(1, net, Config{Obs: reg, LockLease: time.Second})
		c := NewNode(2, net, Config{Obs: reg, LockLease: 2 * time.Second})
		for _, n := range []*Node{a, b, c} {
			defer n.Close()
		}
		if a.metrics != b.metrics || a.metrics != c.metrics {
			t.Errorf("registry %p: nodes resolved their own replica counters", reg)
		}
		if a.lockEnv != b.lockEnv {
			t.Errorf("registry %p: nodes with one lease resolved their own lock environments", reg)
		}
		if a.lockEnv == c.lockEnv || c.lockEnv.lease != 2*time.Second {
			t.Errorf("registry %p: a node with another lease got lease %v", reg, c.lockEnv.lease)
		}
		it, err := a.AddItem("x", nodeset.New(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if it.lock.lockEnv != a.lockEnv {
			t.Errorf("registry %p: an item's lock does not read its node's environment", reg)
		}
	}
	if sharedItemMetrics(obs.New()) == sharedItemMetrics(obs.New()) {
		t.Error("two registries share one bundle")
	}
}

// TestQuietCoordinatorFootprint: the decision log costs what the item has
// coordinated. Ten decisions fit in 128 bytes; a ring filled past
// maxDecisions is at most 36 KB with its chunk table (128.5 KB before its
// slots were packed; sim_hot holds 72 of them), one in which no record fits
// its chunk's base no more than that plus 2 KB, and lookup still finds the
// newest record of a sequence number on either side of the wrap. The gates
// read the ring's own count of what it allocated (decisionLog.bytes); the
// live heap is a cross-check, the least of three identical builds
// (leastHeapGrowth), with slack for what the rest of the process leaves live
// meanwhile.
func TestQuietCoordinatorFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap counts are not meaningful under -race")
	}
	const (
		quietBytes    = 128
		fullBytes     = 36 << 10
		wideRingBytes = maxDecisions*16 + 512 + 2<<10 // the 16-byte ring and its chunk table, and 2 KB
		slack         = 32                            // per quiet item: 32 KB over the 1 024
	)
	const quiet = 1024
	node := NewNode(0, transport.NewNetwork(), Config{})
	defer node.Close()
	var sets [3][]*Item // the quiet items, afresh for each of the three builds
	for s := range sets {
		for i := 0; i < quiet; i++ {
			it, err := node.AddItem(fmt.Sprintf("item-%d-%d", s, i), nodeset.New(0), nil)
			if err != nil {
				t.Fatal(err)
			}
			sets[s] = append(sets[s], it)
		}
	}
	record := func(it *Item, n int) {
		for i := 0; i < n; i++ {
			o := it.NextOp()
			it.RecordDecision(o, false)
			it.RecordCommit(o, o.Seq)
		}
	}
	grew := leastHeapGrowth(func(s int) any {
		for _, it := range sets[s] {
			record(it, 5)
		}
		return sets[s]
	})
	its := sets[0]
	if got := its[0].decisions.bytes(); got > quietBytes {
		t.Errorf("ten decisions on a fresh item hold %d bytes, want at most %d", got, quietBytes)
	}
	if per := grew / quiet; per > quietBytes+slack {
		t.Errorf("ten decisions on a fresh item grew the live heap by %d bytes, want at most %d", per, quietBytes+slack)
	}
	grew = leastHeapGrowth(func(s int) any { record(sets[s][0], maxDecisions); return sets[s][0] })
	it := its[0]
	if got := it.decisions.bytes(); got > fullBytes || grew > fullBytes {
		t.Errorf("a full ring holds %d bytes and grew the live heap by %d, want at most %d", got, grew, fullBytes)
	}
	var wides [3]decisionLog
	grew = leastHeapGrowth(func(s int) any {
		for k := uint64(0); k < maxDecisions+maxDecisions/2; k++ {
			wides[s].record(decision{seq: k << 20, vc: k<<41 | 1})
		}
		return &wides[s]
	})
	wide := &wides[0]
	if got := wide.bytes(); got > wideRingBytes || grew > wideRingBytes {
		t.Errorf("a ring no record of which fits its base holds %d bytes and grew the live heap by %d, want at most %d", got, grew, wideRingBytes)
	}
	t.Logf("decision ring bytes: %d after ten decisions, %d full, %d with no record fitting its base",
		its[1].decisions.bytes(), it.decisions.bytes(), wide.bytes())
	// 2·(5 + maxDecisions) records were written; the ring keeps the last
	// maxDecisions, so sequence numbers up to 5 + maxDecisions/2 are gone.
	last := uint64(5 + maxDecisions)
	for _, seq := range []uint64{1, 5 + maxDecisions/2} {
		if _, known := it.decided(OpID{Seq: seq}); known {
			t.Errorf("seq %d survived %d later records", seq, maxDecisions)
		}
	}
	for _, seq := range []uint64{6 + maxDecisions/2, last - 2, last} {
		if d, known := it.decided(OpID{Seq: seq}); !known || !d.applies(seq) || d.applies(seq+1) {
			t.Errorf("seq %d: known=%v decision=%+v, want its commit, recorded after its abort", seq, known, d)
		}
	}
}

// TestCloseIsIdempotentUnderRace: Node.Close may be called from several
// goroutines at once. Each item used to own a stop channel that Close tested
// and then closed, so two callers could both find it open.
func TestCloseIsIdempotentUnderRace(t *testing.T) {
	members, initial := nodeset.New(0), []byte("v")
	for round := 0; round < 300; round++ {
		node := NewNode(0, transport.NewNetwork(), Config{})
		for i := 0; i < 64; i++ {
			if _, err := node.AddItem(fmt.Sprintf("item-%d", i), members, initial); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				node.Close()
			}()
		}
		wg.Wait()
	}
}
