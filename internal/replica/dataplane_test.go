package replica

import (
	"context"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// TestLockTableDoesNotAllocate is the ISSUE's zero-allocation gate for the
// replica lock table: steady-state acquire/release cycles — shared,
// exclusive, and the prepare-pin path — must not allocate. Holders are
// stored by value in a slice, so releasing and re-acquiring reuses its cells.
// The gate runs with and without obs counters attached: metrics must not
// cost the lock table its guarantee.
func TestLockTableDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	t.Run("bare", func(t *testing.T) { testLockTableDoesNotAllocate(t, newItemLock(time.Second)) })
	t.Run("obs", func(t *testing.T) {
		l := newItemLock(time.Second)
		l.attachMetrics(obs.New())
		testLockTableDoesNotAllocate(t, l)
	})
}

func testLockTableDoesNotAllocate(t *testing.T, l *itemLock) {
	ctx := context.Background()
	op := OpID{Coordinator: 1, Seq: 1}

	cases := []struct {
		name string
		fn   func()
	}{
		{"shared", func() {
			if err := l.acquire(ctx, time.Now(), op, lockShared); err != nil {
				t.Fatal(err)
			}
			l.release(op)
		}},
		{"exclusive", func() {
			if err := l.acquire(ctx, time.Now(), op, lockExclusive); err != nil {
				t.Fatal(err)
			}
			l.release(op)
		}},
		{"exclusive+pin", func() {
			if err := l.acquire(ctx, time.Now(), op, lockExclusive); err != nil {
				t.Fatal(err)
			}
			if !l.pin(time.Now(), op) {
				t.Fatal("pin failed")
			}
			l.release(op)
		}},
		{"heldBy", func() { _ = l.heldBy(time.Now(), op, lockShared) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocations per cycle, want 0", tc.name, allocs)
		}
	}
}

// TestHandlerAllocationBudget holds the replica side of the three hot
// messages to what outlives the handler. An uncontended LockPrepare → Commit
// cycle allocates the staged record, the update's one copy (the store logs
// the staged copy, it does not copy again), the boxed reply, and the state
// snapshot the commit publishes for lock-free readers; a ReadSnap the value
// copy and the reply; an applied ApplyDirect the update's copy and the
// snapshot. Acknowledgements are boxed once for all.
func TestHandlerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	node := NewNode(0, transport.NewNetwork(), Config{Obs: obs.New()})
	defer node.Close()
	it, err := node.AddItem("x", nodeset.New(0), make([]byte, 256))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	u := Update{Offset: 100, Data: make([]byte, 16)}
	good := nodeset.New(0)
	seq := uint64(0)
	cases := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"LockPrepare+Commit", 4, func() {
			seq++
			op := OpID{Coordinator: 0, Seq: seq}
			reply, err := it.handleLockPrepare(ctx, LockPrepare{Op: op, Update: u, NewVersion: seq, GoodSet: good})
			if lp, ok := reply.(LockPrepareReply); err != nil || !ok || !lp.Prepared {
				t.Fatalf("write %d not staged: %v, %v", seq, reply, err)
			}
			if reply, _ := it.handleCommit(Commit{Op: op}); reply != ackOK {
				t.Fatalf("commit %d: %v", seq, reply)
			}
		}},
		{"ReadSnap", 2, func() {
			seq++
			if _, err := it.handleReadSnap(ctx, ReadSnap{Op: OpID{Coordinator: 1, Seq: seq}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"ApplyDirect", 2, func() {
			seq++
			version := it.State().Version + 1
			reply, _ := it.handleApplyDirect(ctx, ApplyDirect{Op: OpID{Coordinator: 1, Seq: seq}, Update: u, NewVersion: version, GoodSet: good})
			if reply != ackOK {
				t.Fatalf("direct apply of version %d: %v", version, reply)
			}
		}},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(200, tc.fn)
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
	if it.lock.holderCount(time.Now()) != 0 {
		t.Error("a cycle left the lock held")
	}
}

// TestStateIsLockFree verifies State() answers from the published snapshot
// without taking the item mutex: a goroutine holding mu indefinitely must
// not block State.
func TestStateIsLockFree(t *testing.T) {
	net := transport.NewNetwork()
	node := NewNode(0, net, Config{})
	defer node.Close()
	it, err := node.AddItem("x", nodeset.New(0), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}

	it.mu.Lock()
	done := make(chan StateReply, 1)
	go func() { done <- it.State() }()
	select {
	case st := <-done:
		if st.Version != 0 || st.Node != 0 {
			t.Fatalf("unexpected state %+v", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("State() blocked behind the item mutex")
	}
	it.mu.Unlock()
}

// TestStateSnapshotConsistency drives concurrent writes against one item
// while readers snapshot its state, asserting every snapshot is internally
// consistent (version never decreases, epoch never partially updated).
// Run under -race to check the publication discipline.
func TestStateSnapshotConsistency(t *testing.T) {
	net := transport.NewNetwork()
	members := nodeset.New(0)
	node := NewNode(0, net, Config{})
	defer node.Close()
	it, err := node.AddItem("x", members, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := it.State()
				if st.Version < last {
					t.Errorf("version went backwards: %d after %d", st.Version, last)
					return
				}
				last = st.Version
				if !st.Epoch.Equal(members) {
					t.Errorf("torn epoch snapshot: %v", st.Epoch)
					return
				}
			}
		}()
	}

	ctx := context.Background()
	for i := 0; i < 200; i++ {
		op := it.NextOp()
		if err := it.lock.acquire(ctx, time.Now(), op, lockExclusive); err != nil {
			t.Fatal(err)
		}
		if _, err := it.handlePrepareUpdate(PrepareUpdate{
			Op:         op,
			Update:     Update{Offset: 0, Data: []byte{byte(i)}},
			NewVersion: uint64(i + 1),
			GoodSet:    members,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := it.handleCommit(Commit{Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := it.State().Version; got != 200 {
		t.Fatalf("final version %d, want 200", got)
	}
}
