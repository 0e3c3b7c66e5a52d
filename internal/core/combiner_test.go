package core

import (
	"context"
	"errors"
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

// batchOptions is fastOptions with a registry, which counts the batches
// every coordinator's combiner flushes.
func batchOptions() Options {
	o := fastOptions()
	o.Obs = obs.New()
	return o
}

// pilingOptions is batchOptions on a network whose messages take a few
// microseconds to arrive. A round then takes its caller long enough for the
// writers behind it to pile up in the combiner; without transit time a round
// runs to its end on its caller's goroutine and usually finds the queue empty.
func pilingOptions() Options {
	o := batchOptions()
	o.Transport = []transport.Option{transport.WithLatency(func(*rand.Rand) time.Duration { return 5 * time.Microsecond })}
	return o
}

// TestGroupCommitEquivalence is the batching correctness property: K
// concurrent writes through one coordinator must be
// indistinguishable from K sequential single writes — every write
// succeeds, the assigned versions are a permutation of 1..K, the final
// value is the composition of all K disjoint updates, and the recorded
// history is one-copy serializable. At least one multi-write flush must
// actually have happened, or the test exercised nothing.
func TestGroupCommitEquivalence(t *testing.T) {
	opts := pilingOptions()
	// Generous call timeout: writers queuing behind the in-flight batch's
	// replica locks (or a propagation worker's) must block and proceed,
	// not time out — this test asserts strict all-succeed equivalence.
	opts.CallTimeout = 2 * time.Second
	c, err := NewCluster(9, "item", make([]byte, 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const K = 24
	coord := c.Coordinator(0)
	rec := onecopy.NewRecorder(make([]byte, 64))
	ctx := ctxT(t)

	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		versions [K]uint64
		errs     [K]error
		updates  [K]replica.Update
	)
	for i := 0; i < K; i++ {
		updates[i] = replica.Update{Offset: i * 2, Data: []byte{byte('a' + i%26), byte(i)}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			s := rec.Begin()
			v, err := coord.Write(ctx, updates[i])
			if err == nil {
				rec.EndWrite(s, v, updates[i])
			}
			versions[i], errs[i] = v, err
		}(i)
	}
	close(start)
	wg.Wait()

	seen := make(map[uint64]int, K)
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("write %d: %v", i, errs[i])
		}
		if versions[i] < 1 || versions[i] > K {
			t.Fatalf("write %d: version %d outside 1..%d", i, versions[i], K)
		}
		if prev, dup := seen[versions[i]]; dup {
			t.Fatalf("writes %d and %d both assigned version %d", prev, i, versions[i])
		}
		seen[versions[i]] = i
	}

	value, ver := mustRead(t, c, 4)
	if ver != K {
		t.Fatalf("final version %d, want %d", ver, K)
	}
	want := make([]byte, 64)
	for _, u := range updates {
		copy(want[u.Offset:], u.Data)
	}
	if string(value) != string(want) {
		t.Fatalf("final value %q, want %q", value, want)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("history not one-copy serializable: %v", err)
	}

	if flushes := opts.Obs.Counter("core_batch_flush_total").Load(); flushes == 0 {
		t.Fatal("no multi-write batch was flushed; the test did not exercise group commit")
	}
	if n := opts.Obs.Histogram("core_batch_size").Count(); n == 0 {
		t.Fatal("core_batch_size recorded no samples")
	}
}

// TestGroupCommitMarksLaggingMemberStale: a batch whose quorum draws a
// member that missed an earlier write marks it stale desiring the run's
// last version, first+K−1. Desiring the first, the member could be
// propagated to an earlier version of the run, clear its mark there and
// serve a stale read. Propagation brings it current at the last version,
// and a read from a quorum containing it returns the last value.
func TestGroupCommitMarksLaggingMemberStale(t *testing.T) {
	c, err := NewCluster(9, "item", make([]byte, 16), batchOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const K, lag, coord = 4, nodeset.ID(4), nodeset.ID(0)
	rec := onecopy.NewRecorder(make([]byte, 16))
	want := make([]byte, 16)

	first := replica.Update{Offset: 15, Data: []byte("z")}
	s := rec.Begin()
	writeWithout(t, c, coord, first, lag)
	rec.EndWrite(s, 1, first)
	copy(want[first.Offset:], first.Data)
	if v := c.Replica(lag).State().Version; v != 0 {
		t.Fatalf("lagging member at version %d, want 0", v)
	}

	var (
		mu      sync.Mutex
		locked  bool     // lag got a LockRequest in the current batch
		snaps   int      // ReadSnaps lag answered
		desired []uint64 // the Desired of every PrepareStale lag got
	)
	inner := c.Node(lag).Handler()
	c.Net.Register(lag, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		if env, ok := req.(replica.Envelope); ok {
			mu.Lock()
			switch m := env.Msg.(type) {
			case replica.LockRequest:
				locked = true
			case *replica.ReadSnap:
				snaps++
			case replica.PrepareStale:
				desired = append(desired, m.Desired)
			}
			mu.Unlock()
		}
		return inner(ctx, from, req)
	})
	drawn := func() bool { mu.Lock(); defer mu.Unlock(); return locked }

	// Batches until one draws lag; the ones before it leave lag further
	// behind (their pushes find it more than one version short).
	var last uint64
	for attempt := 0; attempt < 32 && !drawn(); attempt++ {
		batch := newBatch(K, byte('A'+attempt*K))
		s := rec.Begin()
		c.Coordinator(coord).executeBatch(batch)
		for i, pw := range batch {
			<-pw.done
			if pw.err != nil {
				t.Fatalf("batch %d writer %d: %v", attempt, i, pw.err)
			}
			rec.EndWrite(s, pw.version, pw.u)
			copy(want[pw.u.Offset:], pw.u.Data)
			last = pw.version
		}
	}
	if !drawn() {
		t.Fatal("no batch drew the lagging member into its quorum")
	}
	mu.Lock()
	marks := append([]uint64(nil), desired...)
	mu.Unlock()
	if len(marks) != 1 || marks[0] != last {
		t.Fatalf("lagging member marked stale desiring %v, want [%d] (the run's last version)", marks, last)
	}
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(lag).State()
		return !st.Stale && st.Version == last
	}, "the stale member was not propagated to the run's last version")

	for i := 0; ; i++ {
		mu.Lock()
		before := snaps
		mu.Unlock()
		s := rec.Begin()
		value, ver := mustRead(t, c, lag)
		rec.EndRead(s, ver, value)
		if ver != last || string(value) != string(want) {
			t.Fatalf("read %q@%d, want %q@%d", value, ver, want, last)
		}
		mu.Lock()
		hit := snaps > before
		mu.Unlock()
		if hit {
			break
		}
		if i == 8 {
			t.Fatal("no read quorum contained the formerly stale member")
		}
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("history not one-copy serializable: %v", err)
	}
}

// TestGroupCommitQueueOverflow: a tiny queue must shed overflow writers to
// the single-write flow, never reject or lose them. Shed writers run the
// bare protocol concurrently and can lose lock races against the in-flight
// batch (that contention is the regime group commit exists for), so each
// writer retries until its update commits; the value composition proves
// nothing was lost.
func TestGroupCommitQueueOverflow(t *testing.T) {
	c, err := NewCluster(9, "item", make([]byte, 16), batchOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const K = 8
	coord := c.Coordinator(0)
	coord.combiner.maxBatch, coord.combiner.maxQueue = 2, 2
	ctx := ctxT(t)
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := replica.Update{Offset: i, Data: []byte{byte(i + 1)}}
			for attempt := 0; ; attempt++ {
				_, err := coord.Write(ctx, u)
				if err == nil || attempt >= 20 {
					errs[i] = err
					return
				}
				time.Sleep(time.Duration(10+i) * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("write %d never committed: %v", i, err)
		}
	}
	v, ver := mustRead(t, c, 1)
	if ver < K {
		t.Fatalf("final version %d, want >= %d", ver, K)
	}
	for i := 0; i < K; i++ {
		if v[i] != byte(i+1) {
			t.Fatalf("offset %d = %d after all writes committed (value %v)", i, v[i], v)
		}
	}
}

// TestGroupCommitDisabledBySafetyThreshold: the Section 4.1 extension and
// the batch prepare are incompatible (ApplyDirect bypasses the combiner's
// 2PC framing), so under a safety threshold concurrent writers on one
// coordinator keep the single-write flow: each runs its own rounds, and
// none is ever queued or merged.
func TestGroupCommitDisabledBySafetyThreshold(t *testing.T) {
	opts := pilingOptions()
	opts.SafetyThreshold = 1
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const K = 6
	coord := c.Coordinator(0)
	ctx := ctxT(t)
	var wg sync.WaitGroup
	errs := make([]error, K)
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = coord.Write(ctx, replica.Update{Offset: i, Data: []byte{1}})
		}(i)
	}
	close(start)
	wg.Wait()
	ok := 0
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case !errors.Is(err, ErrConflict):
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if ok == 0 {
		t.Fatal("no write committed")
	}
	coord.combiner.mu.Lock()
	draining := coord.combiner.draining
	coord.combiner.mu.Unlock()
	if draining {
		t.Fatal("a writer took the combiner's lead despite SafetyThreshold")
	}
	for _, name := range []string{"core_batch_flush_total", "core_batch_fallback_total"} {
		if n := opts.Obs.Counter(name).Load(); n != 0 {
			t.Fatalf("%s = %d despite SafetyThreshold", name, n)
		}
	}
	if n := opts.Obs.Counter("core_writes_total").Load(); n != K {
		t.Fatalf("core_writes_total = %d, want %d", n, K)
	}
}

// TestGroupCommitFallbackOnQuorumLoss: when the lock round cannot assemble
// a write quorum the batch must abort cleanly — every writer falls back to
// the single-write flow (whose own failure is the ordinary unavailability
// error), and the fallback counter records the abort.
func TestGroupCommitFallbackOnQuorumLoss(t *testing.T) {
	opts := pilingOptions()
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// {0,1,2} is one member of each grid column: a read cover but never a
	// full column, so no write quorum exists on the coordinator's side and
	// the heavy procedure cannot regenerate the epoch from a minority.
	if err := c.Net.Partition(nodeset.New(0, 1, 2), nodeset.Range(3, 9)); err != nil {
		t.Fatal(err)
	}

	const K = 16
	coord := c.Coordinator(0)
	ctx := ctxT(t)
	var wg sync.WaitGroup
	errs := make([]error, K)
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = coord.Write(ctx, replica.Update{Offset: i % 16, Data: []byte{byte(i)}})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("write %d succeeded without a write quorum", i)
		}
	}
	if fb := opts.Obs.Counter("core_batch_fallback_total").Load(); fb == 0 {
		t.Fatal("no batch fallback recorded; the batch path never aborted")
	}

	// After healing, the item must still be consistent and writable.
	c.Net.Heal()
	mustWrite(t, c, 4, replica.Update{Offset: 0, Data: []byte("ok")})
	if v, _ := mustRead(t, c, 7); string(v[:2]) != "ok" {
		t.Fatalf("post-heal read %q", v)
	}
}

// TestGroupCommitChurnStress is the batching analogue of
// TestDataPlaneStress: concurrent batched writes and reads against
// partition churn and epoch checking, verified for one-copy
// serializability. Contention is funneled through three coordinators so
// multi-write batches actually form. Meant to run under -race.
func TestGroupCommitChurnStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	opts := batchOptions()
	opts.CallTimeout = 250 * time.Millisecond
	opts.Replica.LockLease = time.Second
	c, err := NewCluster(9, "item", make([]byte, 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	rec := onecopy.NewRecorder(make([]byte, 64))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	splits := [][2]nodeset.Set{
		{nodeset.New(0, 1, 2, 3, 4, 5, 6), nodeset.New(7, 8)},
		{nodeset.New(0, 1, 2, 3, 4, 6, 7), nodeset.New(5, 8)},
		{nodeset.New(0, 2, 3, 4, 5, 6, 8), nodeset.New(1, 7)},
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
			}
			if i%2 == 0 {
				s := splits[(i/2)%len(splits)]
				_ = c.Net.Partition(s[0], s[1])
			} else {
				c.Net.Heal()
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
			}
			checkCtx, checkCancel := context.WithTimeout(ctx, 2*time.Second)
			_, _ = c.CheckEpoch(checkCtx)
			checkCancel()
		}
	}()

	const workers = 8
	deadline := time.Now().Add(3 * time.Second)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				// Writes share three coordinators so the combiner sees
				// contention; reads rotate over everyone.
				opCtx, opCancel := context.WithTimeout(ctx, 2*time.Second)
				if (w+i)%3 == 0 {
					coord := c.Coordinator(nodeset.ID((w*7 + i) % 9))
					start := rec.Begin()
					value, version, err := coord.Read(opCtx)
					if err == nil {
						rec.EndRead(start, version, value)
					}
				} else {
					coord := c.Coordinator(nodeset.ID(w % 3))
					u := replica.Update{Offset: (w*8 + i) % 56, Data: []byte{byte(w), byte(i)}}
					start := rec.Begin()
					version, err := coord.Write(opCtx, u)
					if err == nil {
						rec.EndWrite(start, version, u)
					} else if !errors.Is(err, ErrConflict) {
						rec.EndMaybeWrite(start, u)
					}
				}
				opCancel()
			}
		}(w)
	}

	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	time.Sleep(time.Until(deadline) + 100*time.Millisecond)
	close(stop)
	select {
	case <-workersDone:
	case <-time.After(20 * time.Second):
		t.Fatal("batch churn stress wedged: workers did not finish (deadlock?)")
	}

	c.Net.Heal()
	settleCtx, settleCancel := context.WithTimeout(context.Background(), 5*time.Second)
	_, _ = c.CheckEpoch(settleCtx)
	settleCancel()

	start := rec.Begin()
	value, version, err := c.Coordinator(6).Read(ctxT(t))
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	rec.EndRead(start, version, value)
	if err := rec.Check(); err != nil {
		t.Fatalf("history not one-copy serializable: %v", err)
	}
}

// TestCombinerDrainDoesNotAllocate gates the combiner machinery itself —
// leader election, queueing, the cut, completion signalling, handing the
// lead back — at zero steady-state allocations. The test plays the leader
// and the writer behind it on one goroutine and completes the cut itself:
// the protocol rounds a cut runs allocate on their own account and are
// gated separately (TestOperationAllocationBudget, whose writes all take
// the idle combiner's lead).
func TestCombinerDrainDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race")
	}
	b := &combiner{maxBatch: 8, maxQueue: 32}
	ctx := context.Background()
	u := replica.Update{Offset: 3, Data: []byte("warm")}
	cycle := func() {
		if pw, lead := b.join(ctx, u); !lead || pw != nil {
			panic("an idle combiner did not hand the writer its lead")
		}
		pw, lead := b.join(ctx, u)
		if lead || pw == nil {
			panic("a writer behind the leader was not queued")
		}
		cut := b.next()
		if len(cut) != 1 || cut[0] != pw {
			panic("the cut is not the queued writer")
		}
		pw.version = 1
		pw.done <- struct{}{}
		if v, err := pw.wait(); v != 1 || err != nil {
			panic("the writer did not get its cut's outcome")
		}
		if b.next() != nil {
			panic("an empty queue gave a cut")
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("combiner join/cut/wait allocates %.1f per write, want 0", allocs)
	}
}

// TestGroupCommitKeepsTheWritersContext: a write through the combiner runs
// under its writer's context, as a write alone does, so its
// flight trace carries the trace ID that context names (and its rounds the
// writer's steer key and deadline).
func TestGroupCommitKeepsTheWritersContext(t *testing.T) {
	opts := batchOptions()
	opts.Obs.SetFlight(obs.NewFlightRecorder(16))
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const id = 0xfeed
	ctx := obs.WithTrace(ctxT(t), obs.TraceContext{TraceID: id, SpanID: 7, Sampled: true})
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, tr := range opts.Obs.Flight().Traces() {
		if tr.Kind != obs.OpWrite {
			continue
		}
		writes++
		if tr.TraceID != id {
			t.Errorf("group-committed write traced as %#x, want the writer's %#x", tr.TraceID, id)
		}
	}
	if writes != 1 {
		t.Fatalf("%d write traces, want 1", writes)
	}
}
