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

// waitsWhenAllowed is a handler shaped like a replica's: it has one place
// where it waits for somebody else, and asked not to wait (NoWait) it says
// ErrWouldWait there having done nothing. Allowed to, it runs wait and
// echoes the request.
func waitsWhenAllowed(wait func()) Handler {
	return func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		if NoWait(ctx) {
			return nil, ErrWouldWait
		}
		wait()
		return req, nil
	}
}

// TestLegsBlockedLegDelaysNoOther: one leg of a multicast has to wait (a
// write queued behind a prepared one); the round's other legs must run to
// completion meanwhile — the ones after it in ID order too — and fn still
// sees all five in ID order. The waiting leg is a remote node's (1) or the
// caller's own (2).
func TestLegsBlockedLegDelaysNoOther(t *testing.T) {
	for _, blocked := range []nodeset.ID{1, 2} {
		net := NewNetwork()
		release := make(chan struct{})
		var done atomic.Int32
		for id := nodeset.ID(0); id < 5; id++ {
			if id == blocked {
				net.Register(id, waitsWhenAllowed(func() { <-release }))
				continue
			}
			net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
				done.Add(1)
				return req, nil
			})
		}
		finished := make(chan []nodeset.ID)
		go func() {
			var order []nodeset.ID
			net.MulticastFunc(context.Background(), 2, nodeset.Range(0, 5), "x", func(to nodeset.ID, r Result) {
				if r.Err != nil || r.Reply != "x" {
					t.Errorf("blocked leg %d: target %d replied %v, %v", blocked, to, r.Reply, r.Err)
				}
				order = append(order, to)
			})
			finished <- order
		}()
		waitFor(t, "the four free legs", func() bool { return done.Load() == 4 })
		select {
		case <-finished:
			t.Fatal("multicast returned before its waiting leg did")
		default:
		}
		close(release)
		if order := <-finished; !slices.Equal(order, nodeset.Range(0, 5).IDs()) {
			t.Errorf("blocked leg %d: callbacks for %v, want 0..4 in order", blocked, order)
		}
	}
}

// TestLegsNoConcurrencyCap: 64 concurrent multicasts whose 320 legs all
// wait until every one of them is waiting. 320 waiting legs are 320
// goroutines: any bound on concurrently running legs below that deadlocks
// this.
func TestLegsNoConcurrencyCap(t *testing.T) {
	const rounds, width = 64, 5
	net := NewNetwork()
	var started atomic.Int32
	all := make(chan struct{})
	for id := nodeset.ID(0); id < width; id++ {
		net.Register(id, waitsWhenAllowed(func() {
			if started.Add(1) == rounds*width {
				close(all)
			}
			<-all
		}))
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
		t.Fatalf("deadlock: %d of %d legs waiting", started.Load(), rounds*width)
	}
	if got := replies.Load(); got != rounds*width {
		t.Errorf("%d good replies, want %d", got, rounds*width)
	}
}

// TestLegsRunOnCallerUnlessTheyWait is the rule. Without latency every
// handler runs on the goroutine that called MulticastFunc, in ID order,
// under NoWait; a handler that answers ErrWouldWait runs once more, on
// another goroutine and allowed to wait; with latency every leg has its
// transit time to wait for and none runs on the caller. fn runs once per
// target, in ID order, on the caller's goroutine throughout.
func TestLegsRunOnCallerUnlessTheyWait(t *testing.T) {
	type run struct {
		id     nodeset.ID
		goid   int
		noWait bool
	}
	for _, tc := range []struct {
		name    string
		latency time.Duration
		from    nodeset.ID
		targets nodeset.Set
		waits   nodeset.Set // targets that have to wait
	}{
		{name: "own node a target", from: 3, targets: nodeset.Range(1, 7)},
		{name: "own node no target", from: 0, targets: nodeset.Range(1, 7)},
		{name: "two targets", from: 7, targets: nodeset.New(2, 5)},
		{name: "two wait", from: 1, targets: nodeset.Range(1, 7), waits: nodeset.New(1, 4)},
		{name: "latency", latency: 50 * time.Microsecond, from: 3, targets: nodeset.Range(1, 7)},
	} {
		var opts []Option
		if tc.latency > 0 {
			opts = append(opts, WithLatency(func(*rand.Rand) time.Duration { return tc.latency }))
		}
		net := NewNetwork(opts...)
		var mu sync.Mutex
		var runs []run
		for id := nodeset.ID(0); id < 8; id++ {
			net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
				mu.Lock()
				runs = append(runs, run{id: id, goid: goid(), noWait: NoWait(ctx)})
				mu.Unlock()
				if NoWait(ctx) && tc.waits.Contains(id) {
					return nil, ErrWouldWait
				}
				return id, nil
			})
		}
		me := goid()
		var got []nodeset.ID
		net.MulticastFunc(context.Background(), tc.from, tc.targets, "x", func(to nodeset.ID, r Result) {
			if g := goid(); g != me {
				t.Errorf("%s: callback for %d on goroutine %d, caller is %d", tc.name, to, g, me)
			}
			if r.Err != nil || r.Reply != to {
				t.Errorf("%s: target %d replied %v, %v", tc.name, to, r.Reply, r.Err)
			}
			got = append(got, to)
		})
		if want := tc.targets.IDs(); !slices.Equal(got, want) {
			t.Errorf("%s: callbacks for %v, want %v", tc.name, got, want)
		}
		var inline []nodeset.ID
		var elsewhere nodeset.Set
		for _, r := range runs {
			switch {
			case r.goid == me && r.noWait:
				inline = append(inline, r.id)
			case r.goid != me && !r.noWait:
				elsewhere.Add(r.id)
			default:
				t.Errorf("%s: handler %d ran with NoWait = %v, on the caller's goroutine = %v", tc.name, r.id, r.noWait, r.goid == me)
			}
		}
		wantInline, wantElsewhere := tc.targets.IDs(), tc.waits
		if tc.latency > 0 {
			wantInline, wantElsewhere = nil, tc.targets
		}
		if !slices.Equal(inline, wantInline) {
			t.Errorf("%s: handlers %v ran on the caller's goroutine, want %v in that order", tc.name, inline, wantInline)
		}
		if !elsewhere.Equal(wantElsewhere) {
			t.Errorf("%s: handlers %v ran on other goroutines, want %v", tc.name, elsewhere.IDs(), wantElsewhere.IDs())
		}
	}
}

// TestLegsOverlapUnderLatency: with latency configured the legs of a round
// spend their transit times side by side. Five targets at 4 ms a call (2 ms
// each way) take 20 ms one after another.
func TestLegsOverlapUnderLatency(t *testing.T) {
	net := NewNetwork(WithLatency(func(*rand.Rand) time.Duration { return 2 * time.Millisecond }))
	for id := nodeset.ID(0); id < 6; id++ {
		net.Register(id, echoHandler)
	}
	start := time.Now()
	net.MulticastFunc(context.Background(), 0, nodeset.Range(1, 6), "x", func(to nodeset.ID, r Result) {
		if r.Err != nil {
			t.Errorf("target %d: %v", to, r.Err)
		}
	})
	if d := time.Since(start); d < 4*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("five 4 ms calls took %v, want one call's time and well under five", d)
	}
}

// TestWouldWaitIsNotAMessage: a leg that answered ErrWouldWait and ran again
// on a worker is one request and one reply, counted and timed once, when it
// was served.
func TestWouldWaitIsNotAMessage(t *testing.T) {
	reg := obs.New()
	var traced atomic.Int32 // the hook runs wherever the call did
	net := NewNetwork(WithObs(reg), WithTrace(func(TraceEvent) { traced.Add(1) }))
	held := nodeset.New(1, 3)
	release := make(chan struct{})
	var attempts, waiting atomic.Int32
	for id := nodeset.ID(0); id < 5; id++ {
		h := Handler(echoHandler)
		if held.Contains(id) {
			h = waitsWhenAllowed(func() { waiting.Add(1); <-release })
		}
		net.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			attempts.Add(1)
			return h(ctx, from, req)
		})
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		net.MulticastFunc(context.Background(), 0, nodeset.Range(0, 5), "x", func(to nodeset.ID, r Result) {
			if r.Err != nil {
				t.Errorf("target %d: %v", to, r.Err)
			}
		})
	}()
	waitFor(t, "two legs to wait on workers", func() bool { return waiting.Load() == 2 })
	if st := net.Stats(); st.Calls != 3 || st.Messages != 6 {
		t.Errorf("with two legs waiting: %d calls, %d messages, want the 3 and 6 of the legs served", st.Calls, st.Messages)
	}
	close(release)
	<-finished
	if got := attempts.Load(); got != 7 {
		t.Errorf("%d handler runs, want 7: five attempts and two legs run again", got)
	}
	var served, timed uint64
	for id := 0; id < 5; id++ {
		served += net.Served(nodeset.ID(id))
		timed += reg.HistogramVec(EndpointCallNs).Get(id).Count()
	}
	if st := net.Stats(); st.Calls != 5 || st.Messages != 10 || st.FailedCalls != 0 || served != 5 || timed != 5 || traced.Load() != 5 {
		t.Errorf("calls %d, messages %d, failed %d, served %d, timed %d, traced %d; want 5, 10, 0, 5, 5, 5",
			st.Calls, st.Messages, st.FailedCalls, served, timed, traced.Load())
	}
}

// TestNoWaitDoesNotLeakIntoNestedCalls: a handler that is itself a
// coordinator passes its context on. Reached by a round's leg it runs under
// NoWait, and the node it calls in turn must be allowed to wait all the
// same: its caller is waiting for it and could do nothing with ErrWouldWait.
// That holds for a nested Call and for a nested round's leg run again on a
// worker, whose context is the nested caller's marked one.
func TestNoWaitDoesNotLeakIntoNestedCalls(t *testing.T) {
	net := NewNetwork()
	release := make(chan struct{})
	var waited atomic.Int32
	net.Register(3, waitsWhenAllowed(func() { waited.Add(1); <-release })) // a replica whose lock is held
	net.Register(0, echoHandler)
	net.Register(4, echoHandler)
	net.Register(1, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		if !NoWait(ctx) {
			t.Error("the outer round's leg did not run under NoWait")
		}
		return net.Call(ctx, 1, 3, req)
	})
	net.Register(2, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		var err error
		net.MulticastFunc(ctx, 2, nodeset.New(3, 4), req, func(_ nodeset.ID, r Result) { err = errors.Join(err, r.Err) })
		return req, err
	})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		net.MulticastFunc(context.Background(), 0, nodeset.New(1, 2), "x", func(to nodeset.ID, r Result) {
			if r.Err != nil || r.Reply != "x" {
				t.Errorf("outer leg %d: %v, %v", to, r.Reply, r.Err)
			}
		})
	}()
	// Node 1's nested call waits on the outer caller's goroutine, so node 2
	// is reached only after the first release.
	waitFor(t, "the nested call to wait", func() bool { return waited.Load() == 1 })
	release <- struct{}{}
	waitFor(t, "the nested round's leg to wait", func() bool { return waited.Load() == 2 })
	release <- struct{}{}
	<-finished
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

// roundObjects and roundBytes are what a multi-target round on a network
// without latency may allocate: the 16-byte context that marks its legs no-wait. Everything else
// comes from pooled scratch. The marker is not pooled because a handler may
// keep its context, and would find some later round's in it.
const roundObjects, roundBytes = 1, 16

// allocatedPerRun is testing.AllocsPerRun's twin for bytes.
func allocatedPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestLegsSteadyStateIsFree is the cost gate (make check-allocs): five-target
// multicasts through handlers as deep as the real ones allocate their round
// budget and nothing else, hand no leg to a worker, start no goroutine, and
// leave the process with as many goroutines as it had — with and without a
// registry.
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
		round()
		goroutines, spawned := runtime.NumGoroutine(), legWorkers.Spawned.Load()
		if allocs := testing.AllocsPerRun(1000, round); allocs != roundObjects {
			t.Errorf("%s: five-target multicast allocates %.2f objects, want %d", name, allocs, roundObjects)
		}
		if bytes := allocatedPerRun(1000, round); bytes > roundBytes {
			t.Errorf("%s: five-target multicast allocates %d bytes, want at most %d", name, bytes, roundBytes)
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
	if got := reg.Gauge("transport_leg_workers_parked").Load(); got != legWorkers.Parked.Load() {
		t.Errorf("registry's transport_leg_workers_parked = %d, the workers count %d", got, legWorkers.Parked.Load())
	}
}

// TestLegsWaitingSteadyStateStartsNoGoroutine: rounds whose legs do leave
// the caller's goroutine — every leg under latency — run them on warm
// workers: once those exist, 1 000 five-target rounds start no goroutine.
func TestLegsWaitingSteadyStateStartsNoGoroutine(t *testing.T) {
	net := NewNetwork(WithLatency(func(*rand.Rand) time.Duration { return 0 }))
	for id := nodeset.ID(0); id < 5; id++ {
		net.Register(id, deepEcho)
	}
	round := func() {
		net.MulticastFunc(context.Background(), 0, nodeset.Range(0, 5), "ping", func(nodeset.ID, Result) {})
	}
	for i := 0; i < 100; i++ {
		round()
	}
	spawned := legWorkers.Spawned.Load()
	for i := 0; i < 1000; i++ {
		round()
	}
	if got := legWorkers.Spawned.Load() - spawned; got != 0 {
		t.Errorf("%d legs needed a fresh goroutine in the steady state, want 0", got)
	}
	if got := legWorkers.Parked.Load(); got < 5 {
		t.Errorf("%d workers parked after five-leg rounds, want at least 5", got)
	}
}

// TestLegsParkedBounded: a burst of 500 legs that all wait needs 500
// goroutines while it lasts and leaves at most maxParkedLegs behind.
func TestLegsParkedBounded(t *testing.T) {
	const burst = 500
	before := runtime.NumGoroutine() - int(legWorkers.Parked.Load())
	net := NewNetwork()
	var started atomic.Int32
	release := make(chan struct{})
	for id := nodeset.ID(0); id < 2; id++ {
		net.Register(id, waitsWhenAllowed(func() {
			started.Add(1)
			<-release
		}))
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
		t.Errorf("%d workers parked while %d legs wait", got, burst)
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
