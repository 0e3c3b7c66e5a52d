package transport

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// TestLatencyStreamsReproducible pins the per-endpoint RNG seeding scheme:
// identical (seed, call schedule) pairs must draw identical latency values,
// run to run, when driven by a single goroutine (GOMAXPROCS=1 semantics —
// the draws happen sequentially on the calling goroutine either way).
func TestLatencyStreamsReproducible(t *testing.T) {
	trace := func(seed int64) []int64 {
		var mu sync.Mutex
		var draws []int64
		n := NewNetwork(WithSeed(seed), WithLatency(func(r *rand.Rand) time.Duration {
			v := r.Int63()
			mu.Lock()
			draws = append(draws, v)
			mu.Unlock()
			return 0 // no sleep: we test the streams, not the timers
		}))
		for id := nodeset.ID(0); id < 4; id++ {
			n.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
				return req, nil
			})
		}
		ctx := context.Background()
		// A fixed schedule exercising every endpoint as both sender and
		// replier (each call draws once from the sender's stream for the
		// request leg and once from the replier's for the reply leg).
		for i := 0; i < 10; i++ {
			for from := nodeset.ID(0); from < 4; from++ {
				to := (from + 1) % 4
				if _, err := n.Call(ctx, from, to, "ping"); err != nil {
					t.Fatalf("call %v->%v: %v", from, to, err)
				}
			}
		}
		return draws
	}

	a, b := trace(42), trace(42)
	if len(a) != 80 || len(b) != 80 {
		t.Fatalf("expected 80 draws (40 calls x 2 legs), got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identically-seeded runs: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical latency trace")
	}
}

// TestEndpointStreamsDisjoint verifies that different endpoints draw from
// decorrelated streams under the same base seed: the first draws of all
// endpoints must be pairwise distinct (a shared or sequentially-seeded RNG
// would correlate them).
func TestEndpointStreamsDisjoint(t *testing.T) {
	seen := make(map[int64]nodeset.ID)
	for id := nodeset.ID(0); id < 64; id++ {
		r := rand.New(rand.NewSource(streamSeed(1, id)))
		v := r.Int63()
		if prev, dup := seen[v]; dup {
			t.Fatalf("endpoints %v and %v share first draw %d", prev, id, v)
		}
		seen[v] = id
	}
}

// TestRegisterPreservesAccounting pins the restart semantics: re-registering
// a node (fresh handler state) keeps its served counter and latency stream —
// the node restarted, the network interface did not.
func TestRegisterPreservesAccounting(t *testing.T) {
	n := NewNetwork()
	echo := func(ctx context.Context, from nodeset.ID, req Message) (Message, error) { return req, nil }
	n.Register(0, echo)
	n.Register(1, echo)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := n.Call(ctx, 0, 1, "x"); err != nil {
			t.Fatal(err)
		}
	}
	n.Register(1, echo) // restart with fresh handler
	if _, err := n.Call(ctx, 0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if got := n.Load()[1]; got != 4 {
		t.Fatalf("served counter across re-register = %d, want 4", got)
	}
}

// TestOneWayDeliveryAllocs: a one-way send costs its detached context — one
// small object per SendAsync, shared by the whole fan-out — and a delivery
// costs nothing, even when its handler asks the context for the trace tag as
// every replica handler does. (context.WithoutCancel's context boxed itself
// on each such lookup: one more object per delivery.)
func TestOneWayDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	n := NewNetwork(WithObs(obs.New()))
	delivered := 0
	for id := nodeset.ID(0); id < 9; id++ {
		n.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			if obs.TraceFrom(ctx).Valid() {
				delivered++
			}
			return nil, nil
		})
	}
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{TraceID: 7, SpanID: 1, Sampled: true})
	var msg Message = "commit"
	for _, fanout := range []int{1, 8} {
		targets := nodeset.Range(1, nodeset.ID(1+fanout))
		delivered = 0
		allocs := testing.AllocsPerRun(200, func() { n.SendAsync(ctx, 0, targets, msg) })
		if allocs != 1 {
			t.Errorf("SendAsync to %d targets allocates %.1f objects, want 1 whatever the fan-out", fanout, allocs)
		}
		if delivered != 201*fanout {
			t.Errorf("%d deliveries saw the trace tag, want %d", delivered, 201*fanout)
		}
	}
}

// TestMulticastFuncAllocs is the ISSUE's zero-allocation gate for the
// fan-out path: point-to-point calls, single-target multicasts and — since
// the legs run on warm workers — multi-target fan-outs must not allocate at
// all: no per-call result map, no scratch slices, no goroutine spawn.
// The gate runs twice: on a bare network and on one with a live obs
// registry attached, because the ISSUE requires the protocol's
// zero-allocation guarantees to hold with metrics enabled.
func TestMulticastFuncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	t.Run("bare", func(t *testing.T) { testMulticastFuncAllocs(t, NewNetwork()) })
	t.Run("obs", func(t *testing.T) { testMulticastFuncAllocs(t, NewNetwork(WithObs(obs.New()))) })
}

func testMulticastFuncAllocs(t *testing.T, n *Network) {
	for id := nodeset.ID(0); id < 25; id++ {
		n.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			return req, nil
		})
	}
	ctx := context.Background()
	var sink int

	if allocs := testing.AllocsPerRun(200, func() {
		_, _ = n.Call(ctx, 0, 1, "ping")
	}); allocs != 0 {
		t.Errorf("Call allocates %.1f objects per call, want 0", allocs)
	}
	if n.callNs != nil && n.callNs.Get(1).Count() < 200 {
		t.Errorf("the gated calls were not timed: node 1's cell counts %d", n.callNs.Get(1).Count())
	}

	one := nodeset.New(3)
	if allocs := testing.AllocsPerRun(200, func() {
		n.MulticastFunc(ctx, 0, one, "ping", func(to nodeset.ID, r Result) { sink++ })
	}); allocs != 0 {
		t.Errorf("single-target MulticastFunc allocates %.1f objects per call, want 0", allocs)
	}

	for _, targets := range []int{5, 25} {
		set := nodeset.Range(0, nodeset.ID(targets))
		// Target list, result slots, wait group and result delivery come
		// from pooled scratch; the round's no-wait context does not.
		if allocs := testing.AllocsPerRun(100, func() {
			n.MulticastFunc(ctx, 0, set, "ping", func(to nodeset.ID, r Result) { sink++ })
		}); allocs != roundObjects {
			t.Errorf("%d-target MulticastFunc allocates %.1f objects per call, want %d", targets, allocs, roundObjects)
		}
	}
	_ = sink
}

// TestObsRegistryView pins satellite 1 of the observability ISSUE: the
// per-endpoint served counters live in the obs registry's vector, Load()
// is a thin view over the same cells, and the traffic counters surface as
// registry metrics — one source of truth for experiments and metrics.
func TestObsRegistryView(t *testing.T) {
	r := obs.New()
	n := NewNetwork(WithObs(r))
	echo := func(ctx context.Context, from nodeset.ID, req Message) (Message, error) { return req, nil }
	n.Register(0, echo)
	n.Register(1, echo)
	n.Register(2, echo)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := n.Call(ctx, 0, 1, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Call(ctx, 0, 2, "x"); err != nil {
		t.Fatal(err)
	}
	n.Crash(2)
	if _, err := n.Call(ctx, 0, 2, "x"); err == nil {
		t.Fatal("call to crashed node succeeded")
	}

	// Load() and the registry vector must agree cell for cell.
	vec := r.CounterVec("transport_endpoint_served_total")
	load := n.Load()
	if load[1] != 3 || load[2] != 1 {
		t.Fatalf("Load() = %v, want node1=3 node2=1", load)
	}
	for id, v := range load {
		if got := vec.Get(int(id)).Load(); int64(got) != v {
			t.Errorf("registry cell %d = %d, Load says %d", id, got, v)
		}
	}

	if got := r.Counter("transport_calls_total").Load(); got != 5 {
		t.Errorf("calls_total = %d, want 5", got)
	}
	if got := r.Counter("transport_calls_failed_total").Load(); got != 1 {
		t.Errorf("calls_failed_total = %d, want 1", got)
	}
	// Completed calls are timed by destination; the failed one is not, so
	// a crashed node never looks quick.
	timed := r.HistogramVec(EndpointCallNs)
	if n1, n2 := timed.Get(1).Count(), timed.Get(2).Count(); n1 != 3 || n2 != 1 {
		t.Errorf("timed calls to node 1, node 2 = %d, %d, want 3, 1", n1, n2)
	}

	// ResetStats must clear the registry view too (same cells).
	n.ResetStats()
	if got := r.Counter("transport_calls_total").Load(); got != 0 {
		t.Errorf("calls_total after reset = %d, want 0", got)
	}
	if vals := vec.Values(); vals[1] != 0 {
		t.Errorf("served vec after reset = %v, want zeros", vals)
	}

	// Fan-out width lands in the multicast histogram.
	n.MulticastFunc(ctx, 0, nodeset.New(1, 2), "x", func(nodeset.ID, Result) {})
	h := r.Histogram("transport_multicast_fanout").Snapshot()
	if h.Count != 1 || h.Sum != 2 {
		t.Errorf("fanout histogram count/sum = %d/%d, want 1/2", h.Count, h.Sum)
	}
}

// TestMulticastFuncOrder verifies the callback runs once per target in ID
// order after all calls complete.
func TestMulticastFuncOrder(t *testing.T) {
	n := NewNetwork()
	for id := nodeset.ID(0); id < 8; id++ {
		n.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			return req, nil
		})
	}
	n.Crash(5)
	var got []nodeset.ID
	n.MulticastFunc(context.Background(), 0, nodeset.Range(1, 8), "ping", func(to nodeset.ID, r Result) {
		got = append(got, to)
		if to == 5 && r.Err == nil {
			t.Error("crashed node 5 answered")
		}
		if to != 5 && r.Err != nil {
			t.Errorf("node %v failed: %v", to, r.Err)
		}
	})
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("callback order not ascending: %v", got)
		}
	}
	if len(got) != 7 {
		t.Fatalf("callback ran %d times, want 7", len(got))
	}
}

// TestConcurrentCallsDisjointPairs hammers the lock-free read path: calls
// between disjoint pairs, concurrent with crashes, restarts and partition
// flips, must never race or deadlock (run under -race).
func TestConcurrentCallsDisjointPairs(t *testing.T) {
	const nodes = 16
	n := NewNetwork()
	for id := nodeset.ID(0); id < nodes; id++ {
		n.Register(id, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
			return req, nil
		})
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for pair := 0; pair < nodes/2; pair++ {
		wg.Add(1)
		go func(a, b nodeset.ID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = n.Call(ctx, a, b, "ping")
			}
		}(nodeset.ID(2*pair), nodeset.ID(2*pair+1))
	}
	for i := 0; i < 50; i++ {
		n.Crash(nodeset.ID(i % nodes))
		_ = n.Partition(nodeset.Range(0, nodes/2), nodeset.Range(nodes/2, nodes))
		n.Restart(nodeset.ID(i % nodes))
		n.Heal()
	}
	close(stop)
	wg.Wait()
}
