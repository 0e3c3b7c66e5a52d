package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// goid is the running goroutine's ID, read off the first line of its stack
// trace ("goroutine 17 [running]:"). Test-only: it is how these tests see
// which goroutine a leg or a callback ran on.
func goid() int {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.Atoi(string(f[1]))
	if err != nil {
		panic(err)
	}
	return id
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLegsBlockedLegDelaysNoOther: one leg of a multicast parks in its
// handler (a write queued behind a prepared one); the round's other legs
// must run to completion meanwhile. Running legs inline one after another
// fails here. Both placements of the blocked leg are covered: on a worker
// (target 1) and on the caller's goroutine (the caller's own node).
func TestLegsBlockedLegDelaysNoOther(t *testing.T) {
	for _, blocked := range []nodeset.ID{1, 2} {
		net := NewNetwork()
		release := make(chan struct{})
		var done atomic.Int32
		for id := nodeset.ID(0); id < 5; id++ {
			net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
				if id == blocked {
					<-release
				} else {
					done.Add(1)
				}
				return req, nil
			})
		}
		finished := make(chan int)
		go func() {
			n := 0
			net.MulticastFunc(context.Background(), 2, nodeset.Range(0, 5), "x", func(nodeset.ID, Result) { n++ })
			finished <- n
		}()
		waitFor(t, "the four free legs", func() bool { return done.Load() == 4 })
		select {
		case <-finished:
			t.Fatal("multicast returned before its blocked leg did")
		default:
		}
		close(release)
		if n := <-finished; n != 5 {
			t.Errorf("blocked leg %d: %d callbacks, want 5", blocked, n)
		}
	}
}

// TestLegsNoConcurrencyCap: 64 concurrent multicasts whose 320 legs all
// block until every one of them has started. Any bound on concurrently
// running legs below 320 deadlocks this.
func TestLegsNoConcurrencyCap(t *testing.T) {
	const rounds, width = 64, 5
	net := NewNetwork()
	var started atomic.Int32
	all := make(chan struct{})
	for id := nodeset.ID(0); id < width; id++ {
		net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			if started.Add(1) == rounds*width {
				close(all)
			}
			<-all
			return req, nil
		})
	}
	var wg sync.WaitGroup
	var replies atomic.Int32
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.MulticastFunc(context.Background(), nodeset.ID(r%width), nodeset.Range(0, width), r, func(_ nodeset.ID, res Result) {
				if res.Err == nil && res.Reply == r {
					replies.Add(1)
				}
			})
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("deadlock: %d of %d legs started", started.Load(), rounds*width)
	}
	if got := replies.Load(); got != rounds*width {
		t.Errorf("%d good replies, want %d", got, rounds*width)
	}
}

// TestLegsCallbacksOnCallerInOrder: fn runs once per target, in ID order,
// on the goroutine that called MulticastFunc, whether or not the caller's
// node is a target; and the leg that runs on the caller's goroutine is the
// caller's own node when it is a target, otherwise the last by ID.
func TestLegsCallbacksOnCallerInOrder(t *testing.T) {
	net := NewNetwork()
	var ranOn [8]atomic.Int64
	for id := nodeset.ID(0); id < 8; id++ {
		net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			ranOn[id].Store(int64(goid()))
			return id, nil
		})
	}
	for _, tc := range []struct {
		from    nodeset.ID
		targets nodeset.Set
		own     nodeset.ID
	}{
		{from: 3, targets: nodeset.Range(1, 7), own: 3},
		{from: 1, targets: nodeset.Range(1, 7), own: 1},
		{from: 0, targets: nodeset.Range(1, 7), own: 6},
		{from: 7, targets: nodeset.New(2, 5), own: 5},
	} {
		me := goid()
		var got []nodeset.ID
		net.MulticastFunc(context.Background(), tc.from, tc.targets, "x", func(to nodeset.ID, r Result) {
			if g := goid(); g != me {
				t.Errorf("from %d: callback for %d on goroutine %d, caller is %d", tc.from, to, g, me)
			}
			if r.Err != nil || r.Reply != to {
				t.Errorf("from %d: target %d replied %v, %v", tc.from, to, r.Reply, r.Err)
			}
			got = append(got, to)
		})
		if want := tc.targets.IDs(); !slices.Equal(got, want) {
			t.Errorf("from %d: callbacks for %v, want %v", tc.from, got, want)
		}
		for _, id := range tc.targets.IDs() {
			if onCaller := ranOn[id].Load() == int64(me); onCaller != (id == tc.own) {
				t.Errorf("from %d: leg %d on caller's goroutine = %v, own leg is %d", tc.from, id, onCaller, tc.own)
			}
		}
	}
}

// TestLegsFailedTargets: crashed and partitioned targets yield
// ErrCallFailed, in their slots, whichever goroutine ran their leg.
func TestLegsFailedTargets(t *testing.T) {
	net := newEchoNet(t, 6)
	net.Crash(1)
	net.Crash(5) // the last by ID: the caller-run leg
	if err := net.Partition(nodeset.New(0, 1, 2, 5), nodeset.New(3, 4)); err != nil {
		t.Fatal(err)
	}
	failed := nodeset.New(1, 3, 4, 5)
	net.MulticastFunc(context.Background(), 0, nodeset.Range(1, 6), "x", func(to nodeset.ID, r Result) {
		if failed.Contains(to) != errors.Is(r.Err, ErrCallFailed) {
			t.Errorf("target %d: err = %v, want failure = %v", to, r.Err, failed.Contains(to))
		}
	})
	// A crashed caller fails every leg, its own included.
	net.Heal()
	net.Crash(2)
	net.MulticastFunc(context.Background(), 2, nodeset.New(0, 2, 3), "x", func(to nodeset.ID, r Result) {
		if !errors.Is(r.Err, ErrCallFailed) {
			t.Errorf("crashed caller, target %d: err = %v", to, r.Err)
		}
	})
}

// TestLegsNestedMulticast: a handler that is itself a coordinator — it
// multicasts from inside a leg — makes progress, three levels deep and
// eight rounds at a time.
func TestLegsNestedMulticast(t *testing.T) {
	net := NewNetwork()
	var leaves atomic.Int32
	for id := nodeset.ID(0); id < 4; id++ {
		net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			depth := req.(int)
			if depth == 0 {
				leaves.Add(1)
				return 0, nil
			}
			net.MulticastFunc(ctx, id, nodeset.Range(0, 4), depth-1, func(to nodeset.ID, r Result) {
				if r.Err != nil {
					t.Errorf("nested leg %d at depth %d: %v", to, depth, r.Err)
				}
			})
			return depth, nil
		})
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.MulticastFunc(context.Background(), 0, nodeset.Range(0, 4), 2, func(nodeset.ID, Result) {})
		}()
	}
	wg.Wait()
	if got := leaves.Load(); got != 8*4*4*4 {
		t.Errorf("%d leaf handlers ran, want %d", got, 8*4*4*4)
	}
}

// TestLegsDelayedSendAsync: with latency configured a one-way fan-out
// costs the sender no transit time and still reaches every live target.
func TestLegsDelayedSendAsync(t *testing.T) {
	net := NewNetwork(WithLatency(func(*rand.Rand) time.Duration { return 20 * time.Millisecond }))
	var delivered atomic.Int32
	for id := nodeset.ID(0); id < 4; id++ {
		net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			delivered.Add(1)
			return nil, nil
		})
	}
	net.Crash(3)
	start := time.Now()
	net.SendAsync(context.Background(), 0, nodeset.Range(1, 4), "x")
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("SendAsync held the sender for %v", d)
	}
	waitFor(t, "both live targets", func() bool { return delivered.Load() == 2 })
	if got := net.Stats().Messages; got != 2 {
		t.Errorf("messages = %d, want 2", got)
	}
}

// deepEcho replies after descending about as far as a real handler does
// (Mux → Node.handle → Item.Handle → lock queue: 6–8 KB of frames), so a
// leg on a fresh 2 KB stack would have to grow it twice.
func deepEcho(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
	if descend(24) < 0 {
		return nil, ErrCallFailed
	}
	return req, nil
}

//go:noinline
func descend(n int) int {
	var pad [256]byte
	pad[n] = byte(n)
	if n > 0 {
		return descend(n-1) + int(pad[n])
	}
	return int(pad[0])
}

// TestLegsSteadyStateIsFree is the cost gate (make check-allocs): once the
// workers are warm, 10 000 five-target multicasts through handlers as deep
// as the real ones allocate nothing, start no goroutine, and leave the
// process with as many goroutines as it had — with and without a registry.
func TestLegsSteadyStateIsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	reg := obs.New()
	for name, net := range map[string]*Network{"bare": NewNetwork(), "obs": NewNetwork(WithObs(reg))} {
		for id := nodeset.ID(0); id < 5; id++ {
			net.Register(id, deepEcho)
		}
		ctx, set, n := context.Background(), nodeset.Range(0, 5), 0
		round := func() { net.MulticastFunc(ctx, 0, set, "ping", func(nodeset.ID, Result) { n++ }) }
		for i := 0; i < 100; i++ {
			round()
		}
		goroutines, spawned := runtime.NumGoroutine(), legWorkers.Spawned.Load()
		if allocs := testing.AllocsPerRun(10000, round); allocs != 0 {
			t.Errorf("%s: five-target multicast allocates %.2f objects, want 0", name, allocs)
		}
		if got := legWorkers.Spawned.Load() - spawned; got != 0 {
			t.Errorf("%s: %d legs needed a fresh goroutine in the steady state, want 0", name, got)
		}
		if got := runtime.NumGoroutine(); got != goroutines {
			t.Errorf("%s: %d goroutines after the run, %d before", name, got, goroutines)
		}
	}
	if got := reg.Counter("transport_leg_spawn_total").Load(); got != legWorkers.Spawned.Load() {
		t.Errorf("registry's transport_leg_spawn_total = %d, the workers count %d", got, legWorkers.Spawned.Load())
	}
	if got := reg.Gauge("transport_leg_workers_parked").Load(); got < 4 {
		t.Errorf("registry's transport_leg_workers_parked = %d after five-target rounds, want >= 4", got)
	}
}

// TestLegsParkedBounded: a burst of 500 legs that all block needs 500
// goroutines while it lasts and leaves at most maxParkedLegs behind.
func TestLegsParkedBounded(t *testing.T) {
	const burst = 500
	before := runtime.NumGoroutine() - int(legWorkers.Parked.Load())
	net := NewNetwork()
	var started atomic.Int32
	release := make(chan struct{})
	for id := nodeset.ID(0); id < 2; id++ {
		net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			started.Add(1)
			<-release
			return req, nil
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < burst/2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.MulticastFunc(context.Background(), 0, nodeset.Range(0, 2), i, func(nodeset.ID, Result) {})
		}()
	}
	waitFor(t, "the burst to be in flight", func() bool { return started.Load() == burst })
	if got := legWorkers.Parked.Load(); got != 0 {
		t.Errorf("%d workers parked while %d legs block", got, burst)
	}
	close(release)
	wg.Wait()
	// Each worker parks or exits as its leg returns; nothing waits on a timer.
	waitFor(t, "the surplus workers to exit", func() bool {
		return runtime.NumGoroutine()-before <= maxParkedLegs
	})
	if got := legWorkers.Parked.Load(); got < 1 || got > maxParkedLegs {
		t.Errorf("%d workers parked after the burst, want 1..%d", got, maxParkedLegs)
	}
}

// TestWorkersClose: Close releases a pool's parked workers (tcpnet closes
// one per accepted connection), and a job still running finishes first.
func TestWorkersClose(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int32
	w := NewWorkers(4, func(gate chan struct{}) {
		<-gate
		ran.Add(1)
	})
	first, last := make(chan struct{}), make(chan struct{})
	for i := 0; i < 3; i++ {
		w.Go(first)
	}
	close(first)
	waitFor(t, "three workers to park", func() bool { return w.Parked.Load() == 3 })
	w.Go(last)
	if got := w.Parked.Load(); got != 2 {
		t.Errorf("%d workers parked with one of three claimed, want 2", got)
	}
	if got := w.Spawned.Load(); got != 3 {
		t.Errorf("%d spawns, want 3: the fourth job had parked workers to take", got)
	}
	w.Close()
	close(last)
	waitFor(t, "every worker to exit", func() bool { return runtime.NumGoroutine() <= before })
	if got := ran.Load(); got != 4 {
		t.Errorf("%d jobs ran, want 4", got)
	}
}
