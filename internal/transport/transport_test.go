package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/nodeset"
)

func echoHandler(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
	return req, nil
}

func newEchoNet(t *testing.T, n int) *Network {
	t.Helper()
	net := NewNetwork()
	for i := 0; i < n; i++ {
		net.Register(nodeset.ID(i), echoHandler)
	}
	return net
}

func TestCallRoundTrip(t *testing.T) {
	net := newEchoNet(t, 2)
	reply, err := net.Call(context.Background(), 0, 1, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if reply != "hello" {
		t.Errorf("reply = %v", reply)
	}
}

func TestCallToSelf(t *testing.T) {
	net := newEchoNet(t, 1)
	reply, err := net.Call(context.Background(), 0, 0, 42)
	if err != nil || reply != 42 {
		t.Errorf("self call = %v, %v", reply, err)
	}
}

func TestCallToUnknownNode(t *testing.T) {
	net := newEchoNet(t, 1)
	if _, err := net.Call(context.Background(), 0, 9, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("err = %v, want ErrCallFailed", err)
	}
}

func TestCallFromUnknownNode(t *testing.T) {
	net := newEchoNet(t, 1)
	if _, err := net.Call(context.Background(), 9, 0, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("err = %v, want ErrCallFailed", err)
	}
}

func TestCrashAndRestart(t *testing.T) {
	net := newEchoNet(t, 2)
	net.Crash(1)
	if net.IsUp(1) {
		t.Error("IsUp after crash")
	}
	if _, err := net.Call(context.Background(), 0, 1, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("call to crashed node: %v", err)
	}
	// Calls from a crashed node fail too.
	if _, err := net.Call(context.Background(), 1, 0, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("call from crashed node: %v", err)
	}
	net.Restart(1)
	if !net.IsUp(1) {
		t.Error("not up after restart")
	}
	if _, err := net.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Errorf("call after restart: %v", err)
	}
	// Crash/Restart of unknown nodes are no-ops.
	net.Crash(42)
	net.Restart(42)
}

func TestHandlerErrorPassesThrough(t *testing.T) {
	net := NewNetwork()
	sentinel := errors.New("app error")
	net.Register(0, echoHandler)
	net.Register(1, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		return nil, sentinel
	})
	_, err := net.Call(context.Background(), 0, 1, "x")
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if errors.Is(err, ErrCallFailed) {
		t.Error("handler error conflated with ErrCallFailed")
	}
}

func TestPartition(t *testing.T) {
	net := newEchoNet(t, 4)
	if err := net.Partition(nodeset.New(0, 1), nodeset.New(2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Errorf("intra-partition call failed: %v", err)
	}
	if _, err := net.Call(context.Background(), 0, 2, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("cross-partition call: %v", err)
	}
	net.Heal()
	if _, err := net.Call(context.Background(), 0, 2, "x"); err != nil {
		t.Errorf("call after heal: %v", err)
	}
}

func TestPartitionImplicitGroup(t *testing.T) {
	net := newEchoNet(t, 3)
	// Node 2 unmentioned: it lands in the implicit group, separated from
	// group 1.
	if err := net.Partition(nodeset.New(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Call(context.Background(), 0, 2, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("cross-group call: %v", err)
	}
}

func TestPartitionOverlapRejected(t *testing.T) {
	net := newEchoNet(t, 3)
	if err := net.Partition(nodeset.New(0, 1), nodeset.New(1, 2)); err == nil {
		t.Error("overlapping groups accepted")
	}
}

// multicast collects a round's outcomes by target. It keeps the replies past
// fn, which is safe because the tests' echo handlers answer into no slot.
func multicast(n *Network, targets nodeset.Set, req Message) map[nodeset.ID]Result {
	out := make(map[nodeset.ID]Result)
	n.MulticastFunc(context.Background(), 0, targets, req, func(to nodeset.ID, r Result) { out[to] = r })
	return out
}

func TestMulticastCollectsAll(t *testing.T) {
	net := newEchoNet(t, 5)
	net.Crash(3)
	res := multicast(net, nodeset.Range(1, 5), "ping")
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	for id, r := range res {
		if id == 3 {
			if !errors.Is(r.Err, ErrCallFailed) {
				t.Errorf("crashed target err = %v", r.Err)
			}
		} else if r.Err != nil || r.Reply != "ping" {
			t.Errorf("target %v: %v, %v", id, r.Reply, r.Err)
		}
	}
}

func TestMulticastEmptyTargets(t *testing.T) {
	net := newEchoNet(t, 1)
	res := multicast(net, nodeset.Set{}, "x")
	if len(res) != 0 {
		t.Errorf("results = %v", res)
	}
}

func TestStatsCounting(t *testing.T) {
	net := newEchoNet(t, 2)
	net.ResetStats()
	if _, err := net.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.Calls != 1 || s.Messages != 2 || s.FailedCalls != 0 {
		t.Errorf("stats = %+v", s)
	}
	net.Crash(1)
	net.Call(context.Background(), 0, 1, "x") //nolint:errcheck
	s = net.Stats()
	if s.Calls != 2 || s.FailedCalls != 1 || s.Messages != 2 {
		t.Errorf("stats after failure = %+v", s)
	}
	net.ResetStats()
	if s := net.Stats(); s.Calls != 0 || s.Messages != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestLoadAccounting(t *testing.T) {
	net := newEchoNet(t, 3)
	for i := 0; i < 5; i++ {
		if _, err := net.Call(context.Background(), 0, 1, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Call(context.Background(), 0, 2, "x"); err != nil {
		t.Fatal(err)
	}
	load := net.Load()
	if load[1] != 5 || load[2] != 1 || load[0] != 0 {
		t.Errorf("load = %v", load)
	}
	// Load() returns a copy.
	load[1] = 99
	if net.Load()[1] != 5 {
		t.Error("Load exposed internal map")
	}
}

// TestServedCounters: Served is the cumulative per-endpoint request count
// (transport_endpoint_served_total) — it must count every handled call
// and read zero for unknown nodes. ResetStats rewinds it.
func TestServedCounters(t *testing.T) {
	net := newEchoNet(t, 3)
	for i := 0; i < 4; i++ {
		if _, err := net.Call(context.Background(), 0, 1, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Call(context.Background(), 1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if got := net.Served(1); got != 4 {
		t.Errorf("Served(1) = %d, want 4", got)
	}
	if got := net.Served(2); got != 1 {
		t.Errorf("Served(2) = %d, want 1", got)
	}
	if got := net.Served(0); got != 0 {
		t.Errorf("Served(0) = %d, want 0 (callers are not servers)", got)
	}
	if got := net.Served(77); got != 0 {
		t.Errorf("Served(unknown) = %d, want 0", got)
	}
	net.ResetStats()
	if got := net.Served(1); got != 0 {
		t.Errorf("Served(1) after ResetStats = %d, want 0", got)
	}
}

func TestNodesAndUpNodes(t *testing.T) {
	net := newEchoNet(t, 3)
	net.Crash(1)
	if !net.Nodes().Equal(nodeset.Range(0, 3)) {
		t.Errorf("Nodes = %v", net.Nodes())
	}
	if !net.UpNodes().Equal(nodeset.New(0, 2)) {
		t.Errorf("UpNodes = %v", net.UpNodes())
	}
}

func TestRegisterNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewNetwork().Register(0, nil)
}

func TestLatencyAndContextCancellation(t *testing.T) {
	net := NewNetwork(WithLatency(func(r *rand.Rand) time.Duration {
		return 50 * time.Millisecond
	}), WithSeed(7))
	net.Register(0, echoHandler)
	net.Register(1, echoHandler)

	start := time.Now()
	if _, err := net.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Errorf("latency not applied: %v", d)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := net.Call(ctx, 0, 1, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("cancelled call err = %v", err)
	}
}

func TestCrashDuringFlight(t *testing.T) {
	// The handler crashes its own node before replying: the reply must not
	// be delivered.
	net := NewNetwork()
	net.Register(0, echoHandler)
	net.Register(1, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		net.Crash(1)
		return "reply", nil
	})
	if _, err := net.Call(context.Background(), 0, 1, "x"); !errors.Is(err, ErrCallFailed) {
		t.Errorf("err = %v, want ErrCallFailed", err)
	}
}

func TestReentrantHandler(t *testing.T) {
	// Node 1's handler forwards to node 2.
	net := NewNetwork()
	net.Register(0, echoHandler)
	net.Register(2, echoHandler)
	net.Register(1, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		return net.Call(ctx, 1, 2, req)
	})
	reply, err := net.Call(context.Background(), 0, 1, "fwd")
	if err != nil || reply != "fwd" {
		t.Errorf("forwarded call = %v, %v", reply, err)
	}
}

func TestConcurrentCallsRace(t *testing.T) {
	net := newEchoNet(t, 8)
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				from := nodeset.ID(g % 8)
				to := nodeset.ID(i % 8)
				if _, err := net.Call(context.Background(), from, to, i); err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	// Concurrent topology churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			net.Crash(7)
			net.Restart(7)
		}
	}()
	wg.Wait()
	// No assertion on failure count (crash timing is racy); the test's
	// value is running with -race and asserting nothing deadlocks.
	_ = failures.Load()
}

func TestRegisterReplacesHandler(t *testing.T) {
	net := NewNetwork()
	net.Register(0, echoHandler)
	net.Register(1, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		return "old", nil
	})
	net.Register(1, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		return "new", nil
	})
	reply, _ := net.Call(context.Background(), 0, 1, "x")
	if reply != "new" {
		t.Errorf("reply = %v", reply)
	}
}

func TestMulticastMessageCost(t *testing.T) {
	// A multicast to k reachable nodes costs 2k messages — the paper's
	// model without hardware multicast.
	net := newEchoNet(t, 6)
	net.ResetStats()
	multicast(net, nodeset.Range(1, 6), "x")
	if s := net.Stats(); s.Messages != 10 {
		t.Errorf("messages = %d, want 10", s.Messages)
	}
}

func TestTraceHook(t *testing.T) {
	var mu sync.Mutex
	var events []TraceEvent
	net := NewNetwork(WithTrace(func(e TraceEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))
	net.Register(0, echoHandler)
	net.Register(1, echoHandler)

	if _, err := net.Call(context.Background(), 0, 1, "ping"); err != nil {
		t.Fatal(err)
	}
	net.Crash(1)
	net.Call(context.Background(), 0, 1, "lost") //nolint:errcheck

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	ok, fail := events[0], events[1]
	if ok.From != 0 || ok.To != 1 || ok.Request != "ping" || ok.Reply != "ping" || ok.Err != nil {
		t.Errorf("ok event = %+v", ok)
	}
	if !errors.Is(fail.Err, ErrCallFailed) || fail.Reply != nil {
		t.Errorf("fail event = %+v", fail)
	}
}

func TestCodecRoundTripOnCalls(t *testing.T) {
	// A trivial codec that tags the payload proves both directions run.
	encode := func(m Message) ([]byte, error) {
		s, ok := m.(string)
		if !ok {
			return nil, errors.New("only strings")
		}
		return []byte(s), nil
	}
	decode := func(b []byte) (Message, error) { return string(b) + "!", nil }
	net := NewNetwork(WithCodec(encode, decode))
	net.Register(0, echoHandler)
	net.Register(1, echoHandler)
	reply, err := net.Call(context.Background(), 0, 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	// Request transcoded once (x!) and the echoed reply transcoded once
	// more (x!!).
	if reply != "x!!" {
		t.Errorf("reply = %v", reply)
	}
	// Encode failures surface as errors, not ErrCallFailed.
	_, err = net.Call(context.Background(), 0, 1, 42)
	if err == nil || errors.Is(err, ErrCallFailed) {
		t.Errorf("codec error = %v", err)
	}
}

func ExampleNetwork_Call() {
	net := NewNetwork()
	net.Register(0, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		return fmt.Sprintf("pong from n0 to %v", from), nil
	})
	net.Register(1, func(ctx context.Context, from nodeset.ID, req Message) (Message, error) {
		return nil, nil
	})
	reply, _ := net.Call(context.Background(), 1, 0, "ping")
	fmt.Println(reply)
	// Output: pong from n0 to n1
}
