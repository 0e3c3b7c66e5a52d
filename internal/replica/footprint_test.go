package replica

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"coterie/internal/nodeset"
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

// TestColdItemFootprint: a replica nobody has written to costs its value
// plus at most 768 bytes — the Item, its published state, its name and its
// entry in the node's map — in three allocations. What the items of a node
// have in common (configuration, metrics, the lock's lease and counters, the
// version-0 value) is the node's, not copied into each.
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
			if _, created, err := node.EnsureItem(fmt.Sprintf("key-%06d", i), members, initial); err != nil || !created {
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
	if allocs := testing.AllocsPerRun(200, func() { sink = newItem(node, "x", members, initial) }); allocs > 3 {
		t.Errorf("newItem makes %.0f allocations, want at most 3 (Item, value, published state)", allocs)
	}
	runtime.KeepAlive(sink)
}

// TestQuietCoordinatorFootprint: the decision log costs what the item has
// coordinated. Ten commits fit in 256 bytes; a ring filled past maxDecisions
// is 128 KB and its table of chunks, as it was before the first chunk learned
// to start small — sim_hot holds 72 of them — and lookup still finds the newest record of a sequence number on either
// side of the wrap.
func TestQuietCoordinatorFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap counts are not meaningful under -race")
	}
	// The quiet half over many items, so that a stray allocation elsewhere in
	// the process cannot decide it: ten records need sixteen slots, 256 bytes.
	const quiet = 1024
	node := NewNode(0, transport.NewNetwork(), Config{})
	defer node.Close()
	var its []*Item
	for i := 0; i < quiet; i++ {
		it, err := node.AddItem(fmt.Sprintf("item-%d", i), nodeset.New(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		its = append(its, it)
	}
	record := func(it *Item, n int) {
		for i := 0; i < n; i++ {
			o := it.NextOp()
			it.RecordDecision(o, false)
			it.RecordCommit(o, o.Seq)
		}
	}
	grew := liveHeapGrowth(func() any {
		for _, it := range its {
			record(it, 5)
		}
		return its
	})
	if per := grew / quiet; per > 256 {
		t.Errorf("ten decisions on a fresh item hold %d bytes, want at most 256", per)
	}
	it := its[0]
	const full = maxDecisions * int64(unsafe.Sizeof(decision{}))
	if full != 128<<10 {
		t.Fatalf("a full ring is %d bytes, want %d", full, 128<<10)
	}
	grew = liveHeapGrowth(func() any { record(it, maxDecisions); return it })
	if pointers := int64(maxDecisions / decisionChunk * unsafe.Sizeof(it.decisions.chunks[0])); grew > full+pointers {
		t.Errorf("filling the ring past its bound added %d bytes, want at most %d and the %d of its chunk table", grew, full, pointers)
	}
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
