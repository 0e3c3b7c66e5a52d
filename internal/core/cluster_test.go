package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// fastOptions shrinks every timeout so failure paths resolve quickly in
// tests.
func fastOptions() Options {
	return Options{
		Rule:        coterie.Grid{},
		CallTimeout: 500 * time.Millisecond,
		Replica: replica.Config{
			PropagationRetry:       5 * time.Millisecond,
			PropagationCallTimeout: 200 * time.Millisecond,
		},
	}
}

func newTestCluster(t *testing.T, n int, initial []byte) *Cluster {
	t.Helper()
	c, err := NewCluster(n, "item", initial, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func mustWrite(t *testing.T, c *Cluster, from nodeset.ID, u replica.Update) {
	t.Helper()
	if _, err := c.Coordinator(from).Write(ctxT(t), u); err != nil {
		t.Fatalf("write from %v: %v", from, err)
	}
}

// writeWithout commits u from `from` while the absent nodes are down, and
// brings them back afterwards: they missed the write — prepare, commit and
// write-through alike — and rejoin lagging, one version short without
// knowing it. Every committed write otherwise reaches every epoch member,
// so a test that needs a replica behind has to cut it off like this.
func writeWithout(t *testing.T, c *Cluster, from nodeset.ID, u replica.Update, absent ...nodeset.ID) {
	t.Helper()
	for _, id := range absent {
		c.Crash(id)
	}
	mustWrite(t, c, from, u)
	for _, id := range absent {
		c.Restart(id)
	}
}

func mustRead(t *testing.T, c *Cluster, from nodeset.ID) ([]byte, uint64) {
	t.Helper()
	v, ver, err := c.Coordinator(from).Read(ctxT(t))
	if err != nil {
		t.Fatalf("read from %v: %v", from, err)
	}
	return v, ver
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestCluster(t, 9, []byte("0123456789"))
	mustWrite(t, c, 0, replica.Update{Offset: 2, Data: []byte("AB")})
	v, ver := mustRead(t, c, 5)
	if string(v) != "01AB456789" || ver != 1 {
		t.Errorf("read %q@%d", v, ver)
	}
}

func TestSequentialPartialWritesCompose(t *testing.T) {
	c := newTestCluster(t, 9, make([]byte, 8))
	writers := []nodeset.ID{0, 3, 7, 1, 8}
	for i, w := range writers {
		mustWrite(t, c, w, replica.Update{Offset: i, Data: []byte{byte('a' + i)}})
	}
	v, ver := mustRead(t, c, 4)
	want := append([]byte("abcde"), 0, 0, 0)
	if !bytes.Equal(v, want) || ver != uint64(len(writers)) {
		t.Errorf("read %q@%d, want %q@%d", v, ver, want, len(writers))
	}
}

// TestWriteUsesOnlyQuorum: on a failure-free 9-node grid a write locks and
// waits on exactly its write quorum, 2*sqrt(9)-1 = 5 nodes; every other
// epoch member is sent exactly one message, the one-way write-through, and
// no reply to it is awaited.
func TestWriteUsesOnlyQuorum(t *testing.T) {
	var (
		mu     sync.Mutex
		called nodeset.Set // targets of request/reply calls: the writer waited on these
	)
	opts := fastOptions()
	opts.Transport = []transport.Option{transport.WithTrace(func(ev transport.TraceEvent) {
		mu.Lock()
		called.Add(ev.To)
		mu.Unlock()
	})}
	c, err := NewCluster(9, "item", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Net.ResetStats()
	mustWrite(t, c, 0, replica.Update{Data: []byte("x")})

	if called.Len() != 5 || !(coterie.Grid{}).IsWriteQuorum(c.Members, called) {
		t.Errorf("write waited on %v, want exactly one 5-node write quorum", called)
	}
	st, load := c.Net.Stats(), c.Net.Load()
	for _, id := range c.Members.Diff(called).IDs() {
		if load[id] != 1 {
			t.Errorf("bystander %v served %d messages, want 1 (the write-through)", id, load[id])
		}
		if v := c.Replica(id).State().Version; v != 1 {
			t.Errorf("bystander %v at version %d after the write, want 1", id, v)
		}
	}
	// A call is two messages, a one-way send one: whatever was delivered
	// beyond the calls' request and reply legs had no reply leg at all.
	// Four commits to the remote quorum members and four pushes.
	if oneWay := st.Messages - 2*st.Calls; st.FailedCalls != 0 || oneWay != 8 {
		t.Errorf("%d one-way messages (%d failed calls), want 8: 4 commits + 4 write-throughs", oneWay, st.FailedCalls)
	}
}

func TestReadUsesOnlyReadQuorum(t *testing.T) {
	c := newTestCluster(t, 9, []byte("v"))
	c.Net.ResetStats()
	mustRead(t, c, 0)
	load := c.Net.Load()
	touched := 0
	for _, n := range load {
		if n > 0 {
			touched++
		}
	}
	if touched != 3 {
		t.Errorf("read touched %d nodes, want 3 (sqrt(9))", touched)
	}
}

func TestWriteSurvivesSingleFailureWithoutEpochChange(t *testing.T) {
	c := newTestCluster(t, 9, nil)
	c.Crash(4) // center of the 3x3 grid
	mustWrite(t, c, 0, replica.Update{Data: []byte("ok")})
	v, _ := mustRead(t, c, 8)
	if string(v) != "ok" {
		t.Errorf("read %q", v)
	}
}

func TestWriteMarksUnreachableQuorumMembersViaStale(t *testing.T) {
	// With a node down, a write that still finds a quorum marks the stale
	// members; once the node returns, propagation brings it current.
	c := newTestCluster(t, 4, nil) // 2x2 grid: write quorum = 3 nodes
	mustWrite(t, c, 0, replica.Update{Data: []byte("v1")})
	// All replicas in some quorum got v1. Now a second write from another
	// coordinator; every quorum overlaps, and any replica at version 0 in
	// the quorum gets marked stale and then propagated to.
	mustWrite(t, c, 3, replica.Update{Offset: 2, Data: []byte("v2")})
	waitUntil(t, 5*time.Second, func() bool {
		for _, id := range c.Members.IDs() {
			st := c.Replica(id).State()
			if st.Stale {
				return false
			}
		}
		return true
	}, "some replica stayed stale after propagation")
}

func TestUnavailableWhenColumnDead(t *testing.T) {
	// Killing a full grid column with no epoch change blocks both reads
	// and writes (no quorum exists).
	c := newTestCluster(t, 9, nil)
	for _, id := range []nodeset.ID{0, 3, 6} { // column 1 of the 3x3 grid
		c.Crash(id)
	}
	_, err := c.Coordinator(1).Write(ctxT(t), replica.Update{Data: []byte("x")})
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("write err = %v, want ErrUnavailable", err)
	}
	_, _, err = c.Coordinator(1).Read(ctxT(t))
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("read err = %v, want ErrUnavailable", err)
	}
}

func TestEpochChangeRestoresAvailability(t *testing.T) {
	// The paper's headline scenario: failures that kill every static
	// quorum are survived by re-forming the epoch.
	c := newTestCluster(t, 9, nil)
	mustWrite(t, c, 0, replica.Update{Data: []byte("before")})

	for _, id := range []nodeset.ID{0, 3, 6} {
		c.Crash(id)
	}
	// Static behavior: unavailable.
	if _, err := c.Coordinator(1).Write(ctxT(t), replica.Update{Data: []byte("x")}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write before epoch change: %v", err)
	}
	// Epoch checking re-forms the epoch from the 6 survivors... but wait:
	// it must hold a write quorum of the old epoch. {1,2,4,5,7,8} covers
	// no full column of the 3x3 grid, so the epoch change itself must fail.
	if _, err := c.CheckEpoch(ctxT(t)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("epoch change without quorum: %v", err)
	}
	// Bring one column member back: now {1,2,4,5,6,7,8} contains column
	// {0,3,6}? No — 0 and 3 are still down. It contains column 3 of the
	// grid {2,5,8} plus covers: write quorum exists.
	c.Restart(6)
	res, err := c.CheckEpoch(ctxT(t))
	if err != nil {
		t.Fatalf("epoch change: %v", err)
	}
	if !res.Changed || !res.Epoch.Equal(nodeset.New(1, 2, 4, 5, 6, 7, 8)) || res.EpochNum != 1 {
		t.Fatalf("epoch result = %+v", res)
	}
	// Writes work again within the 7-node epoch.
	mustWrite(t, c, 1, replica.Update{Offset: 6, Data: []byte("after")})
	v, _ := mustRead(t, c, 7)
	if string(v) != "beforeafter" {
		t.Errorf("read %q", v)
	}
}

func TestGradualFailuresKeepAvailabilityDownToThree(t *testing.T) {
	// Sequential failures with epoch checks in between keep the item
	// writable until only 3 nodes remain — and with the partial-column
	// optimization even a 3-node epoch can survive.
	c := newTestCluster(t, 9, nil)
	order := []nodeset.ID{0, 1, 2, 3, 4, 5}
	for i, victim := range order {
		c.Crash(victim)
		if _, err := c.CheckEpoch(ctxT(t)); err != nil {
			t.Fatalf("epoch check after crash %d (%v): %v", i, victim, err)
		}
		if _, err := c.Coordinator(8).Write(ctxT(t), replica.Update{Offset: i, Data: []byte{byte('0' + i)}}); err != nil {
			t.Fatalf("write after crash %d (%v): %v", i, victim, err)
		}
	}
	st := c.Replica(8).State()
	if st.Epoch.Len() != 3 {
		t.Errorf("final epoch %v, want 3 members", st.Epoch)
	}
	v, ver := mustRead(t, c, 8)
	if string(v) != "012345" || ver != 6 {
		t.Errorf("read %q@%d", v, ver)
	}
}

func TestRepairRejoinsViaEpochCheckAndPropagation(t *testing.T) {
	c := newTestCluster(t, 9, nil)
	c.Crash(7)
	if _, err := c.CheckEpoch(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, c, 0, replica.Update{Data: []byte("while-away")})
	c.Restart(7)
	res, err := c.CheckEpoch(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || !res.Epoch.Equal(c.Members) {
		t.Fatalf("epoch after repair = %+v", res)
	}
	if !res.Stale.Contains(7) {
		t.Errorf("rejoined node not marked stale: %+v", res)
	}
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(7).State()
		return !st.Stale && st.Version == 1
	}, "rejoined node never caught up")
	v, _ := c.Replica(7).Value()
	if string(v) != "while-away" {
		t.Errorf("node 7 value %q", v)
	}
}

func TestEpochCheckNoChangeIsCheap(t *testing.T) {
	c := newTestCluster(t, 9, nil)
	res, err := c.CheckEpoch(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed {
		t.Error("epoch changed with no failures")
	}
	// A no-op check must not leave any locks behind (it is lock-free).
	mustWrite(t, c, 0, replica.Update{Data: []byte("x")})
}

func TestPartitionOnlyOneSideFormsEpoch(t *testing.T) {
	// Lemma 1's operational consequence: after a partition, at most one
	// side can install a new epoch, and only that side accepts writes.
	c := newTestCluster(t, 9, nil)
	major := nodeset.New(0, 1, 2, 3, 4, 5, 6) // contains column {0,3,6} + cover
	minor := nodeset.New(7, 8)
	if err := c.Net.Partition(major, minor); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckEpochFrom(ctxT(t), 8); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("minority epoch change: %v", err)
	}
	res, err := c.CheckEpochFrom(ctxT(t), 0)
	if err != nil {
		t.Fatalf("majority epoch change: %v", err)
	}
	if !res.Changed || !res.Epoch.Equal(major) {
		t.Fatalf("majority epoch = %+v", res)
	}
	// Majority writes; minority cannot.
	mustWrite(t, c, 0, replica.Update{Data: []byte("maj")})
	if _, err := c.Coordinator(8).Write(ctxT(t), replica.Update{Data: []byte("min")}); err == nil {
		t.Fatal("minority write succeeded")
	}
	// After healing, the minority rejoins through epoch checking.
	c.Net.Heal()
	res, err = c.CheckEpoch(ctxT(t))
	if err != nil || !res.Epoch.Equal(c.Members) {
		t.Fatalf("post-heal epoch: %+v, %v", res, err)
	}
	v, _ := mustRead(t, c, 8)
	if string(v) != "maj" {
		t.Errorf("post-heal read from old minority: %q", v)
	}
}

func TestWriteFailsWhenOnlyStaleReachable(t *testing.T) {
	// Mark most replicas stale, crash the good ones: the maxD > maxV test
	// must fail the write rather than resurrect old data.
	c := newTestCluster(t, 4, nil) // 2x2 grid
	writeWithout(t, c, 0, replica.Update{Data: []byte("v1")}, 3)
	// Find which replicas are current.
	var good, rest []nodeset.ID
	for _, id := range c.Members.IDs() {
		if st := c.Replica(id).State(); !st.Stale && st.Version == 1 {
			good = append(good, id)
		} else {
			rest = append(rest, id)
		}
	}
	if len(rest) != 1 || rest[0] != 3 {
		t.Fatalf("replicas behind after the write = %v, want only the node that was down", rest)
	}
	for _, id := range good {
		c.Crash(id)
	}
	_, err := c.Coordinator(rest[0]).Write(ctxT(t), replica.Update{Data: []byte("v2")})
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("write with only stale replicas: %v", err)
	}
	_, _, err = c.Coordinator(rest[0]).Read(ctxT(t))
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("read with only stale replicas: %v", err)
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	c := newTestCluster(t, 9, make([]byte, 16))
	const writers = 4
	const perWriter = 5
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			co := c.Coordinator(nodeset.ID(w * 2))
			for i := 0; i < perWriter; i++ {
				u := replica.Update{Offset: w * 4, Data: []byte{byte('A' + w)}}
				var err error
				for attempt := 0; attempt < 20; attempt++ {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					_, err = co.Write(ctx, u)
					cancel()
					if err == nil {
						break
					}
					time.Sleep(time.Duration(r.Intn(30)) * time.Millisecond)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	v, ver := mustRead(t, c, 1)
	if ver != writers*perWriter {
		t.Errorf("final version %d, want %d", ver, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		if v[w*4] != byte('A'+w) {
			t.Errorf("offset %d = %q, want %q", w*4, v[w*4], byte('A'+w))
		}
	}
}

func TestReadersDoNotBlockReaders(t *testing.T) {
	c := newTestCluster(t, 9, []byte("r"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, _, err := c.Coordinator(nodeset.ID(i)).Read(ctxT(t)); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSafetyThresholdWritesExtraReplicas(t *testing.T) {
	opts := fastOptions()
	opts.SafetyThreshold = 3
	c, err := NewCluster(4, "item", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxT(t)
	// First write establishes a good list on its participants.
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	// Second write: count replicas at the new version immediately after.
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Offset: 2, Data: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	current := 0
	for _, id := range c.Members.IDs() {
		if st := c.Replica(id).State(); !st.Stale && st.Version == 2 {
			current++
		}
	}
	if current < 3 {
		t.Errorf("only %d replicas current after write with threshold 3", current)
	}
}

func TestPeriodicEpochChecker(t *testing.T) {
	c := newTestCluster(t, 9, nil)
	c.StartEpochChecker(30 * time.Millisecond)
	defer c.StopEpochChecker()
	c.Crash(3)
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(0).State()
		return st.EpochNum >= 1 && !st.Epoch.Contains(3)
	}, "periodic checker never adapted the epoch")
	mustWrite(t, c, 0, replica.Update{Data: []byte("adaptive")})
}

func TestClusterAccessors(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	if c.ItemName() != "item" {
		t.Errorf("ItemName = %q", c.ItemName())
	}
	if c.Coordinator(99) != nil || c.Node(99) != nil || c.Replica(99) != nil {
		t.Error("unknown node accessors returned non-nil")
	}
	if c.Coordinator(0).Item() != c.Replica(0) {
		t.Error("coordinator not co-located with replica")
	}
	c.Crash(1)
	if !c.UpMembers().Equal(nodeset.New(0, 2, 3)) {
		t.Errorf("UpMembers = %v", c.UpMembers())
	}
	if _, err := NewCluster(0, "x", nil, Options{}); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestCheckEpochAllDown(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	for _, id := range c.Members.IDs() {
		c.Crash(id)
	}
	if _, err := c.CheckEpoch(ctxT(t)); !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v", err)
	}
}

func TestInvalidUpdateRejected(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	if _, err := c.Coordinator(0).Write(ctxT(t), replica.Update{Offset: -3}); err == nil {
		t.Error("invalid update accepted")
	}
}

func TestMajorityRuleCluster(t *testing.T) {
	// The same core protocol runs over the voting coterie — the paper's
	// Section 7 point that dynamic voting benefits from the approach.
	opts := fastOptions()
	opts.Rule = coterie.Majority{}
	c, err := NewCluster(5, "item", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxT(t)
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("vote")}); err != nil {
		t.Fatal(err)
	}
	c.Crash(0)
	c.Crash(1)
	if _, err := c.CheckEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	// Let propagation from the epoch change quiesce so the next check is
	// not racing offer traffic under -race's slowdown.
	waitUntil(t, 5*time.Second, func() bool {
		for _, id := range []nodeset.ID{2, 3, 4} {
			if c.Replica(id).State().Stale {
				return false
			}
		}
		return true
	}, "epoch-change propagation never quiesced")
	// 3-node epoch: writes need 2 of 3.
	c.Crash(2)
	if _, err := c.CheckEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Coordinator(4).Write(ctx, replica.Update{Offset: 4, Data: []byte("on")}); err != nil {
		t.Fatal(err)
	}
	v, _ := mustRead(t, c, 3)
	if string(v) != "voteon" {
		t.Errorf("read %q", v)
	}
}

func TestHierarchicalRuleCluster(t *testing.T) {
	opts := fastOptions()
	opts.Rule = coterie.Hierarchical{}
	c, err := NewCluster(9, "item", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxT(t)
	if _, err := c.Coordinator(2).Write(ctx, replica.Update{Data: []byte("hqc")}); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Coordinator(6).Read(ctx)
	if err != nil || string(v) != "hqc" {
		t.Errorf("read %q, %v", v, err)
	}
}
