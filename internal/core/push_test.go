package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Write-through (push.go) is part of every committed write. The tests here
// pin what it buys (every epoch member current when the write returns, so
// the next write is one round whoever coordinates it), what plans it (the
// capacity rule), and the paths that used to leave it out.

// TestWriteThroughKeepsBystandersCurrent: a committed write is sent one-way
// to the epoch members outside its quorum, so every replica is current once
// the write returns (the simulated transport delivers one-way sends inline)
// and the next write takes the fused path from any coordinator.
func TestWriteThroughKeepsBystandersCurrent(t *testing.T) {
	opts := fastOptions()
	opts.Obs = obs.New()
	c, err := NewCluster(4, "item", make([]byte, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, from := range c.Members.IDs() {
		mustWrite(t, c, from, replica.Update{Offset: i, Data: []byte{byte('w' + i%3)}})
		for _, id := range c.Members.IDs() {
			st := c.Replica(id).State()
			if st.Stale || st.Version != uint64(i+1) {
				t.Fatalf("after write %d: replica %v at version %d (stale=%v), want %d",
					i+1, id, st.Version, st.Stale, i+1)
			}
		}
	}
	if hits, misses := specCounters(opts.Obs); hits != 4 || misses != 0 {
		t.Errorf("spec hits/misses = %d/%d, want 4/0", hits, misses)
	}
	// A 2x2 write quorum has 3 members: one bystander per write.
	if sent, applied := opts.Obs.Counter("core_push_sent_total").Load(), opts.Obs.Counter("replica_push_applied_total").Load(); sent != 4 || applied != 4 {
		t.Errorf("pushes sent/applied = %d/%d, want 4/4", sent, applied)
	}
	v, ver := mustRead(t, c, 3)
	if string(v) != "wxyw" || ver != 4 {
		t.Errorf("read %q@%d", v, ver)
	}
}

// TestWriteThroughRandomCoordinators is the steady state the default has to
// deliver: on a failure-free 3x3 grid, with a random node coordinating each
// write and quorums rotating, every write is a speculation hit — one round
// trip, a one-way commit and a one-way write-through — and the repair
// machinery (stale marks, propagation, the heavy procedure) never runs.
func TestWriteThroughRandomCoordinators(t *testing.T) {
	opts := fastOptions()
	opts.Obs = obs.New()
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writes = 500
	rng := rand.New(rand.NewSource(14))
	c.Net.ResetStats()
	for i := 0; i < writes; i++ {
		mustWrite(t, c, nodeset.ID(rng.Intn(9)), replica.Update{Offset: i % 16, Data: []byte{byte('a' + i%26)}})
	}
	reg := opts.Obs
	hits, misses := specCounters(reg)
	if ratio := float64(hits) / float64(hits+misses); hits+misses != writes || ratio < 0.95 {
		t.Errorf("spec hits/misses = %d/%d over %d writes, want hit ratio >= 0.95", hits, misses, writes)
	}
	if n := reg.Counter("replica_stale_marked_total").Load(); n != 0 {
		t.Errorf("%d stale marks on a failure-free cluster", n)
	}
	if n := reg.Counter("core_heavy_procedures_total").Load(); n != 0 {
		t.Errorf("%d heavy procedures on a failure-free cluster", n)
	}
	// Per write: 5 LockPrepare requests and 5 replies, the coordinator's own
	// commit as a loopback call (2), 4 one-way commits, 4 one-way pushes.
	// ISSUE 14 asked for <= 19; it counted the coordinator's own commit as
	// one message, and the simulated network counts a loopback call as two.
	// The budget is asserted exactly, so one message more or less shows.
	if st := c.Net.Stats(); st.Messages != 20*writes || st.Calls != 6*writes {
		t.Errorf("%d messages in %d calls over %d writes, want exactly 20 and 6 per write",
			st.Messages, st.Calls, writes)
	}
	if sent, applied := reg.Counter("core_push_sent_total").Load(), reg.Counter("replica_push_applied_total").Load(); sent != 4*writes || applied != sent {
		t.Errorf("pushes sent/applied = %d/%d, want %d/%d", sent, applied, 4*writes, 4*writes)
	}
}

// countDirectApplies re-registers node id behind a handler that counts the
// direct-apply messages delivered to it.
func countDirectApplies(c *Cluster, id nodeset.ID) *obs.Counter {
	n, inner := new(obs.Counter), c.Node(id).Handler()
	c.Net.Register(id, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		if env, ok := req.(replica.Envelope); ok {
			if _, ok := env.Msg.(replica.ApplyDirect); ok {
				n.Inc()
			}
		}
		return inner(ctx, from, req)
	})
	return n
}

// TestWriteThroughSkipsLowCapacityMember: a member declared at a tenth of
// its peers' capacity is sent no write-through, whatever the strategy. It
// stays a full member: when a write's quorum draws it, it is found behind,
// marked stale and brought current by propagation, as any replica a partial
// write skipped; the histories stay one-copy serializable throughout.
func TestWriteThroughSkipsLowCapacityMember(t *testing.T) {
	const weak = nodeset.ID(4)
	opts := fastOptions()
	opts.Obs = obs.New()
	opts.Capacity = func(id nodeset.ID) float64 {
		if id == weak {
			return 0.1
		}
		return 1
	}
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushes := countDirectApplies(c, weak)
	rec := onecopy.NewRecorder(make([]byte, 16))
	ctx := ctxT(t)

	const writes = 60
	rng := rand.New(rand.NewSource(4))
	wasStale := false
	for i := 0; i < writes; i++ {
		from := nodeset.ID(rng.Intn(9))
		u := replica.Update{Offset: i % 16, Data: []byte{byte('a' + i%26)}}
		s := rec.Begin()
		v, err := c.Coordinator(from).Write(ctx, u)
		if err != nil {
			t.Fatalf("write %d from %v: %v", i, from, err)
		}
		rec.EndWrite(s, v, u)
		wasStale = wasStale || c.Replica(weak).State().Stale
		s = rec.Begin()
		value, ver, err := c.Coordinator(nodeset.ID(rng.Intn(9))).Read(ctx)
		if err != nil {
			t.Fatalf("read after write %d: %v", i, err)
		}
		rec.EndRead(s, ver, value)
	}
	if n := pushes.Load(); n != 0 {
		t.Errorf("the capacity-0.1 member received %d write-throughs, want 0", n)
	}
	if !wasStale {
		t.Error("no write ever found the skipped member behind: the test did not exercise its repair")
	}
	reg := opts.Obs
	if skipped := reg.Counter("core_push_skipped_total").Load(); skipped == 0 {
		t.Error("core_push_skipped_total is 0 although a member was left out")
	}
	if sent, applied := reg.Counter("core_push_sent_total").Load(), reg.Counter("replica_push_applied_total").Load(); sent == 0 || applied != sent {
		t.Errorf("pushes sent/applied = %d/%d: the other bystanders should take every one", sent, applied)
	}
	// One more write through the weak node's own coordinator, whose quorums
	// contain it: propagation then brings it to the last version.
	mustWrite(t, c, weak, replica.Update{Offset: 0, Data: []byte("z")})
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(weak).State()
		return !st.Stale && st.Version == writes+1
	}, "the skipped member was never brought current")
	if err := rec.Check(); err != nil {
		t.Fatalf("history not one-copy serializable: %v", err)
	}
}

// TestWriteThroughDoesNotWaitBehindPreparedWrite: a bystander whose lock is
// pinned by a prepared write of an unreachable coordinator refuses the push
// as busy. The simulated transport runs one-way handlers on the writer's
// goroutine, detached from its deadline; a push that queued behind that
// hold would keep Write from returning until the other coordinator's
// decision could be had.
func TestWriteThroughDoesNotWaitBehindPreparedWrite(t *testing.T) {
	const gone = nodeset.ID(20) // no such node on the network
	opts := fastOptions()
	opts.Obs = obs.New()
	c, err := NewCluster(9, "item", make([]byte, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Whichever members turn out to be the write's bystanders: just before
	// its push arrives, a coordinator nobody can reach has locked and
	// prepared a write of its own there.
	for _, id := range c.Members.IDs() {
		id, inner, seq := id, c.Node(id).Handler(), uint64(1<<32)
		c.Net.Register(id, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
			if env, ok := req.(replica.Envelope); ok {
				if _, ok := env.Msg.(replica.ApplyDirect); ok {
					seq++
					reply, err := inner(ctx, gone, replica.Envelope{Item: env.Item, Msg: replica.LockPrepare{
						Op:         replica.OpID{Coordinator: gone, Seq: seq},
						Update:     replica.Update{Data: []byte("8")},
						NewVersion: c.Replica(id).State().Version + 1,
						GoodSet:    c.Members,
					}})
					if r, ok := reply.(replica.LockPrepareReply); err != nil || !ok || !r.Prepared {
						t.Errorf("node %v: the competing write did not prepare: %v, %v", id, reply, err)
					}
				}
			}
			return inner(ctx, from, req)
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("x")})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Write is still running 5 s past its context's deadline: a push waits behind a prepared write")
	}
	reg := opts.Obs
	sent, busy := reg.Counter("core_push_sent_total").Load(), reg.Counter("replica_push_refused_busy_total").Load()
	if sent != 4 || busy != 4 {
		t.Errorf("pushes sent/refused(busy) = %d/%d, want 4/4", sent, busy)
	}
	if applied := reg.Counter("replica_push_applied_total").Load(); applied != 0 {
		t.Errorf("%d pushes applied on replicas locked by a prepared write", applied)
	}
}

// replyOnly hides a network's one-way capability: what is left is a
// strictly request/reply transport.Net.
type replyOnly struct{ transport.Net }

// TestNoWriteThroughWithoutAsyncSender: on a transport that cannot send
// one-way there is no push, and nothing else changes — the write commits
// with acknowledged rounds on its quorum and touches no other node.
func TestNoWriteThroughWithoutAsyncSender(t *testing.T) {
	reg := obs.New()
	inner := transport.NewNetwork()
	net := replyOnly{inner}
	if _, ok := transport.Net(net).(transport.AsyncSender); ok {
		t.Fatal("the wrapper still exposes SendAsync")
	}
	opts := fastOptions()
	opts.Obs = reg
	members := nodeset.Range(0, 9)
	coords := make([]*Coordinator, 9)
	for _, id := range members.IDs() {
		node := replica.NewNode(id, net, opts.withDefaults().Replica)
		defer node.Close()
		it, err := node.AddItem("item", members, nil)
		if err != nil {
			t.Fatal(err)
		}
		coords[id] = NewCoordinator(it, net, members, opts)
	}
	if v, err := coords[0].Write(ctxT(t), replica.Update{Data: []byte("x")}); err != nil || v != 1 {
		t.Fatalf("write: version %d, %v", v, err)
	}
	if touched := len(inner.Load()); touched != 5 {
		t.Errorf("write touched %d nodes, want 5 (the write quorum)", touched)
	}
	if st := inner.Stats(); st.Messages != 2*st.Calls {
		t.Errorf("%d messages for %d calls: something was sent without a reply", st.Messages, st.Calls)
	}
	if sent := reg.Counter("core_push_sent_total").Load(); sent != 0 {
		t.Errorf("core_push_sent_total = %d on a request/reply transport", sent)
	}
	value, ver, err := coords[8].Read(ctxT(t))
	if err != nil || ver != 1 || string(value) != "x" {
		t.Errorf("read %q@%d, %v", value, ver, err)
	}
}

// TestGroupCommitWritesThrough: a group-committed run reaches the bystanders
// as one direct-apply carrying all of it. Without it every bystander falls
// K versions behind at the first batch and refuses every later push.
func TestGroupCommitWritesThrough(t *testing.T) {
	opts := pilingOptions()
	opts.CallTimeout = 2 * time.Second
	c, err := NewCluster(9, "item", make([]byte, 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const K = 16
	coord, ctx := c.Coordinator(0), ctxT(t)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, err := coord.Write(ctx, replica.Update{Offset: i * 2, Data: []byte{byte('a' + i)}}); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	reg := opts.Obs
	if reg.Counter("core_batch_flush_total").Load() == 0 {
		t.Fatal("no multi-write batch was flushed; the test did not exercise group commit")
	}
	// With transit time the commits and the pushes, one-way both, are still
	// travelling when the writes return.
	waitUntil(t, 2*time.Second, func() bool {
		for _, id := range c.Members.IDs() {
			if c.Replica(id).State().Version != K {
				return false
			}
		}
		return true
	}, "not every replica reached the last version")
	want, _ := c.Replica(0).Value()
	for _, id := range c.Members.IDs() {
		st := c.Replica(id).State()
		if st.Stale || st.Version != K {
			t.Errorf("replica %v at version %d (stale=%v) after %d group-committed writes", id, st.Version, st.Stale, K)
		}
		if got, _ := c.Replica(id).Value(); string(got) != string(want) {
			t.Errorf("replica %v holds %q, the coordinator's %q", id, got, want)
		}
	}
	if gap := reg.Counter("replica_push_refused_gap_total").Load(); gap != 0 {
		t.Errorf("%d pushes refused for a gap", gap)
	}
	// The next single write, from a node that was a bystander or not, finds
	// everyone at K.
	hits, _ := specCounters(reg)
	mustWrite(t, c, 8, replica.Update{Offset: 40, Data: []byte("!")})
	if after, misses := specCounters(reg); after != hits+1 {
		t.Errorf("the write after the batches was not a speculation hit (hits %d -> %d, misses %d)", hits, after, misses)
	}
}

// TestSafetyThresholdNoDoubleDirectApply: the members the Section 4.1
// extension direct-applies to synchronously are not sent the same update
// again as a write-through.
func TestSafetyThresholdNoDoubleDirectApply(t *testing.T) {
	opts := fastOptions()
	opts.Obs = obs.New()
	opts.SafetyThreshold = 7
	c, err := NewCluster(9, "item", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The first write records its quorum as the good list; the second, from
	// the centre of the grid, draws another quorum and extends to members
	// of the first.
	mustWrite(t, c, 0, replica.Update{Data: []byte("v1")})
	c.Net.ResetStats()
	reg := opts.Obs
	reg.Counter("core_push_sent_total").Reset()
	reg.Counter("replica_push_applied_total").Reset()
	mustWrite(t, c, 4, replica.Update{Offset: 2, Data: []byte("v2")})

	// 5 lock+prepare calls and the coordinator's loopback commit; every
	// further call is the extension's synchronous direct-apply.
	st := c.Net.Stats()
	extended := uint64(st.Calls - 6)
	if extended == 0 || extended > 2 {
		t.Fatalf("the extension made %d calls: the test needs it to write 1 or 2 members", extended)
	}
	if sent := reg.Counter("core_push_sent_total").Load(); sent != 4-extended {
		t.Errorf("%d write-throughs sent with %d of 4 bystanders already written by the extension", sent, extended)
	}
	if applied := reg.Counter("replica_push_applied_total").Load(); applied != 4 {
		t.Errorf("%d direct-applies took effect, want 4: each bystander once", applied)
	}
	if gap := reg.Counter("replica_push_refused_gap_total").Load(); gap != 0 {
		t.Errorf("%d direct-applies refused: a member was sent the update twice", gap)
	}
	// Calls are two messages each; the 4 remote commits and the pushes one.
	if want := 2*st.Calls + 4 + int64(4-extended); st.Messages != want {
		t.Errorf("%d messages, want %d", st.Messages, want)
	}
	for _, id := range c.Members.IDs() {
		if v := c.Replica(id).State().Version; v != 2 {
			t.Errorf("replica %v at version %d, want 2", id, v)
		}
	}
}

// TestPushTargets pins the capacity rule: bystanders below half of the
// epoch's largest declared capacity are left out, and members the write
// reached are neither targets nor counted as skipped.
func TestPushTargets(t *testing.T) {
	capacity := func(caps map[nodeset.ID]float64) func(nodeset.ID) float64 {
		return func(id nodeset.ID) float64 {
			if c, ok := caps[id]; ok {
				return c
			}
			return 1
		}
	}
	epoch, none := nodeset.Range(0, 9), nodeset.Set{}
	for _, tc := range []struct {
		name    string
		epoch   nodeset.Set
		written nodeset.Set
		caps    map[nodeset.ID]float64
		skipped nodeset.Set
	}{
		{"homogeneous", epoch, none, nil, none},
		{"one weak member", epoch, none, map[nodeset.ID]float64{4: 0.1}, nodeset.New(4)},
		{"a weak member the write reached is not skipped", epoch, nodeset.New(3, 4, 5), map[nodeset.ID]float64{4: 0.1}, none},
		{"exactly half stays", epoch, none, map[nodeset.ID]float64{4: 0.5}, none},
		{"relative to the largest", epoch, none, map[nodeset.ID]float64{0: 4, 1: 2, 2: 1.9}, nodeset.Range(2, 9)},
		{"the largest counts even when written", epoch, nodeset.New(0), map[nodeset.ID]float64{0: 4, 1: 2}, nodeset.Range(2, 9)},
		{"largest outside the epoch does not count", nodeset.Range(1, 9), none, map[nodeset.ID]float64{0: 4}, none},
		{"all zero", epoch, none, map[nodeset.ID]float64{0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}, none},
	} {
		targets, skipped := pushTargets(tc.epoch, tc.written, capacity(tc.caps))
		if want := tc.epoch.Diff(tc.written).Diff(tc.skipped); !targets.Equal(want) || skipped != tc.skipped.Len() {
			t.Errorf("%s: targets %v, %d skipped; want %v, %d", tc.name, targets, skipped, want, tc.skipped.Len())
		}
	}
	if targets, skipped := pushTargets(epoch, nodeset.New(0, 1), nil); !targets.Equal(nodeset.Range(2, 9)) || skipped != 0 {
		t.Errorf("nil capacity: targets %v, %d skipped; want every bystander", targets, skipped)
	}
}

// TestPushPlanningDoesNotAllocate: with capacities declared, choosing a
// write's push targets allocates nothing — the target set of an epoch below
// node 64 is a word, and the rule adds none.
func TestPushPlanningDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	capacity := func(id nodeset.ID) float64 {
		if id == 4 {
			return 0.1
		}
		return 1
	}
	epoch, written := nodeset.Range(0, 9), nodeset.New(0, 1, 2, 3, 6)
	var targets nodeset.Set
	var skipped int
	allocs := testing.AllocsPerRun(200, func() { targets, skipped = pushTargets(epoch, written, capacity) })
	if allocs != 0 {
		t.Errorf("push planning allocates %.1f objects per write, want 0", allocs)
	}
	if want := nodeset.New(5, 7, 8); !targets.Equal(want) || skipped != 1 {
		t.Errorf("targets %v with %d skipped, want %v with 1", targets, skipped, want)
	}
}
