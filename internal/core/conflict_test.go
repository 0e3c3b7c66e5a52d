package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Conflict resolution (DESIGN.md §14): replicas refuse, at once, a lock
// request that would have to wait for an older multi-replica operation; the
// refused coordinator releases what it was granted and runs its fast path
// again under a fresh OpID. The tests here cover the coordinator's half —
// the replica's half is in replica/lock_test.go and refusal_test.go.

// blockerOlderThan returns an operation that precedes, in the replicas'
// conflict order, the next n operations node will mint for the cluster's
// item. Nothing else may mint operations at node meanwhile.
func blockerOlderThan(c *Cluster, node nodeset.ID, n uint64) replica.OpID {
	next := c.Replica(node).NextOp().Seq + 1
	for seq := uint64(1); ; seq++ {
		b := replica.OpID{Coordinator: 63, Seq: seq}
		oldest := true
		for s := next; s < next+n && oldest; s++ {
			oldest = b.Older(replica.OpID{Coordinator: node, Seq: s})
		}
		if oldest {
			return b
		}
	}
}

// lockAs makes op take the item's lock at every node in at, the way a
// coordinator's heavy lock round would, and returns the function that
// releases them.
func lockAs(t *testing.T, c *Cluster, op replica.OpID, at nodeset.Set) (release func()) {
	t.Helper()
	send := func(msg any) {
		for _, id := range at.IDs() {
			if _, err := c.Net.Call(ctxT(t), id, id, replica.Envelope{Item: c.ItemName(), Msg: msg}); err != nil {
				t.Fatalf("%T at %v: %v", msg, id, err)
			}
		}
	}
	send(replica.LockRequest{Op: op, Mode: replica.LockWrite})
	return func() { send(replica.Abort{Op: op}) }
}

func conflictCluster(t *testing.T) (*Cluster, *obs.Registry) {
	t.Helper()
	opts := fastOptions()
	opts.Obs = obs.New()
	opts.Obs.SetFlight(obs.NewFlightRecorder(16))
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, opts.Obs
}

// TestRefusedWriteRerunsFastPathThenConflicts: a write that keeps losing
// to an older operation runs its one-round fast path lockAttempts times —
// never the heavy procedure, which would lock all nine replicas against
// the operation it lost to — and then fails with ErrConflict, having
// applied nothing and left nothing locked or staged, in far less than a
// CallTimeout. The grants of each refused round (the two rows the blocker
// does not hold stage the update speculatively) are released one-way.
func TestRefusedWriteRerunsFastPathThenConflicts(t *testing.T) {
	c, reg := conflictCluster(t)
	const writer = nodeset.ID(8)
	// Every write quorum of the 3x3 grid contains a full column, so it
	// meets the blocker in row 0 whichever quorum an attempt draws.
	blocker := blockerOlderThan(c, writer, 4*lockAttempts)
	release := lockAs(t, c, blocker, nodeset.New(0, 1, 2))

	began := time.Now()
	_, err := c.Coordinator(writer).Write(ctxT(t), replica.Update{Data: []byte("lost")})
	if !errors.Is(err, ErrConflict) || errors.Is(err, ErrUnavailable) {
		t.Fatalf("write against an older holder: %v, want ErrConflict", err)
	}
	if d := time.Since(began); d >= fastOptions().CallTimeout/2 {
		t.Errorf("refusals took %v to surface; a refused round must not wait for a timeout", d)
	}
	for name, want := range map[string]uint64{
		"core_lock_retry_total":       lockAttempts - 1,
		"core_heavy_procedures_total": 0,
		"replica_lock_denied_total":   0,
		"replica_lock_expired_total":  0,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Counter("replica_lock_refused_total").Load(); got < lockAttempts {
		t.Errorf("replica_lock_refused_total = %d, want at least one per attempt (%d)", got, lockAttempts)
	}
	traces := reg.Flight().Traces()
	last := traces[len(traces)-1]
	refusals := 0
	for _, e := range last.EventsSlice() {
		if e.Kind == obs.EvRefused {
			refusals++
			if e.A != uint64(blocker.Coordinator) || e.B != blocker.Seq || e.N == 0 {
				t.Errorf("refused event names n%d#%d by %d members, want %v", e.A, e.B, e.N, blocker)
			}
		}
	}
	if last.Outcome != obs.OutcomeConflict || refusals+int(last.Dropped) < lockAttempts || refusals == 0 {
		t.Errorf("flight trace: outcome %v with %d refused events (%d dropped), want a conflict with %d", last.Outcome, refusals, last.Dropped, lockAttempts)
	}

	// Nothing of the refused rounds is left behind: once the blocker goes,
	// the next write takes the one-round path through whatever quorum it
	// draws, at the version the refused write never produced.
	release()
	refusedBefore := reg.Counter("replica_lock_refused_total").Load()
	version, err := c.Coordinator(3).Write(ctxT(t), replica.Update{Data: []byte("kept")})
	if err != nil || version != 1 {
		t.Fatalf("write after the blocker left: version %d, %v", version, err)
	}
	if hits := reg.Counter("core_spec_prepare_hit_total").Load(); hits != 1 {
		t.Errorf("speculative hits = %d, want 1: a refused round left a lock or a staging behind", hits)
	}
	if got := reg.Counter("replica_lock_refused_total").Load(); got != refusedBefore {
		t.Errorf("%d refusals after the blocker left", got-refusedBefore)
	}
}

// TestRefusedEpochCheckRetriesThenConflicts: the epoch check's lock round
// obeys the same order. Refused, it releases and locks again as a fresh
// operation; out of attempts it reports ErrConflict, not a lost quorum, and
// it succeeds once the older operation is gone.
func TestRefusedEpochCheckRetriesThenConflicts(t *testing.T) {
	c, reg := conflictCluster(t)
	c.Crash(8) // gives the check something to change
	const checker = nodeset.ID(0)
	blocker := blockerOlderThan(c, checker, 4*lockAttempts)
	release := lockAs(t, c, blocker, nodeset.New(4))

	_, err := c.CheckEpochFrom(ctxT(t), checker)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("epoch check against an older holder: %v, want ErrConflict", err)
	}
	if got := reg.Counter("core_lock_retry_total").Load(); got != lockAttempts-1 {
		t.Errorf("core_lock_retry_total = %d, want %d", got, lockAttempts-1)
	}
	release()
	res, err := c.CheckEpochFrom(ctxT(t), checker)
	if err != nil || !res.Changed || res.Epoch.Contains(8) {
		t.Fatalf("epoch check after the blocker left: %+v, %v", res, err)
	}
	if got := reg.Counter("replica_lock_denied_total").Load(); got != 0 {
		t.Errorf("replica_lock_denied_total = %d, want 0", got)
	}
}

// TestHotItemWritersOnEveryNode is the contention the rule is for: a
// closed-loop writer on each of the nine nodes, all on one item, so every
// pair of write quorums overlaps; heavy readers (with every replica lagging
// most reads end in the heavy procedure, which takes ordered shared locks)
// and an epoch-check pulse run beside them. No attempt of any operation may
// last a CallTimeout — waits are untied by the order, not by timeouts —
// every writer must finish its share (nobody starves: each attempt draws a
// fresh rank), an operation that runs out of attempts must say ErrConflict,
// and the history must be one-copy serializable.
func TestHotItemWritersOnEveryNode(t *testing.T) {
	writes := 60
	if testing.Short() {
		writes = 15
	}
	for name, perCoord := range map[string]int{"single writes": 1, "group commit": 2} {
		t.Run(name, func(t *testing.T) { hotItemWriters(t, writes, perCoord) })
	}
}

// hotItemWriters runs perCoord writer goroutines on each coordinator. With
// one, every cut its combiner makes is a single write, so the contention is
// all across coordinators; with two, the combiner has something to merge.
func hotItemWriters(t *testing.T, writes, perCoord int) {
	const nodes = 9
	opts := fastOptions()
	opts.CallTimeout = 2 * time.Second // what no attempt may reach, even under -race
	opts.Replica.PropagationCallTimeout = opts.CallTimeout
	opts.Obs = obs.New()
	groupCommit := perCoord > 1
	if !groupCommit {
		// Without transit time a round runs to its end on its caller's
		// goroutine, and at GOMAXPROCS 1 the nine writers can take turns
		// without one lock request ever meeting another's. A few
		// microseconds per message keep every round open long enough for
		// the next writer's to arrive, so some request must queue.
		opts.Transport = []transport.Option{transport.WithLatency(func(*rand.Rand) time.Duration { return 5 * time.Microsecond })}
	}
	c, err := NewCluster(nodes, "item", make([]byte, 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	rec := onecopy.NewRecorder(make([]byte, 64))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var slowest atomic.Int64
	// attempt times one try of one operation and sorts its outcome: nil,
	// or a clean ErrConflict to try again, are the only acceptable ones.
	attempt := func(what string, run func() error) (retry bool) {
		began := time.Now()
		err := run()
		if d := int64(time.Since(began)); d > slowest.Load() {
			slowest.Store(d) // racy maximum; an estimate is all the log line needs
		}
		if d := time.Since(began); d >= opts.CallTimeout {
			t.Errorf("%s attempt lasted %v: some wait ended by timeout", what, d)
		}
		if err != nil && !errors.Is(err, ErrConflict) {
			t.Errorf("%s: %v", what, err)
		}
		return err != nil && ctx.Err() == nil
	}

	var writers, others sync.WaitGroup
	stop := make(chan struct{})
	var conflicts atomic.Int64
	for w := 0; w < nodes; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			co := c.Coordinator(nodeset.ID(w))
			var sub sync.WaitGroup
			for g := 0; g < perCoord; g++ {
				sub.Add(1)
				go func(g int) {
					defer sub.Done()
					for i := g; i < writes; i += perCoord {
						u := replica.Update{Offset: (w*7 + i) % 60, Data: []byte{byte(w), byte(i)}}
						for attempt("write", func() error {
							start := rec.Begin()
							version, err := co.Write(ctx, u)
							if err == nil {
								rec.EndWrite(start, version, u)
							}
							return err
						}) {
							conflicts.Add(1)
							time.Sleep(200 * time.Microsecond)
						}
					}
				}(g)
			}
			sub.Wait()
		}(w)
	}
	for r := 0; r < 3; r++ {
		others.Add(1)
		go func(r int) {
			defer others.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				co := c.Coordinator(nodeset.ID((r*3 + i) % nodes))
				attempt("read", func() error {
					start := rec.Begin()
					value, version, err := co.Read(ctx)
					if err == nil {
						rec.EndRead(start, version, value)
					}
					return err
				})
			}
		}(r)
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			attempt("epoch check", func() error {
				_, err := c.CheckEpochFrom(ctx, nodeset.ID(i%nodes))
				return err
			})
		}
	}()

	writers.Wait()
	close(stop)
	others.Wait()
	if ctx.Err() != nil {
		t.Fatal("writers did not finish in 60 s: some writer starved")
	}
	for _, name := range []string{"replica_lock_denied_total", "replica_lock_expired_total", "replica_decision_unknown_total"} {
		if got := opts.Obs.Counter(name).Load(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	t.Logf("%d writes, %d surfaced ErrConflict, %d lock rounds refused and rerun, slowest attempt %v",
		nodes*writes, conflicts.Load(), opts.Obs.Counter("core_lock_retry_total").Load(), time.Duration(slowest.Load()))
	if got := int(opts.Obs.Counter("replica_commits_total").Load()); got == 0 {
		t.Fatal("nothing committed")
	}
	// Legs that found a lock taken waited for it on the network's workers
	// (the combiner can take all contention away: 0 refusals in some runs).
	if !groupCommit && opts.Obs.Counter("replica_lock_waited_total").Load() == 0 {
		t.Error("replica_lock_waited_total = 0: no request ever queued behind another")
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("history not one-copy serializable: %v", err)
	}
	// Every write was acknowledged exactly once, conflicts included.
	if _, version := mustRead(t, c, 0); version != uint64(nodes*writes) {
		t.Errorf("final version %d, want %d", version, nodes*writes)
	}
}
