package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// freeAddrs reserves n distinct loopback addresses by binding ephemeral
// listeners and releasing them. The tiny window between release and the
// test's own Listen is benign on loopback.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// echoHandler replies to FetchValue with the op's sequence number so the
// caller can verify its reply was not cross-wired to another in-flight
// call, and to LockRequest with a granted Ack. delay staggers completion
// order to force the multiplexer to match replies out of order.
func echoHandler(delay func(seq uint64) time.Duration) transport.Handler {
	return func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		switch m := req.(type) {
		case replica.FetchValue:
			if delay != nil {
				if d := delay(m.Op.Seq); d > 0 {
					time.Sleep(d)
				}
			}
			return replica.ValueReply{Version: m.Op.Seq, Value: []byte(fmt.Sprintf("v%d", m.Op.Seq))}, nil
		case replica.LockRequest:
			return replica.Ack{OK: true}, nil
		default:
			return nil, fmt.Errorf("no handler for %T", req)
		}
	}
}

// pairedNets builds two Networks sharing one address book: a hosts node
// 0, b hosts node 1. Calls between them cross real loopback TCP.
func pairedNets(t *testing.T, opts ...Option) (a, b *Network, book map[nodeset.ID]string) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	book = map[nodeset.ID]string{0: addrs[0], 1: addrs[1]}
	a = New(book, opts...)
	b = New(book, opts...)
	a.Register(0, echoHandler(nil))
	b.Register(1, echoHandler(nil))
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, book
}

func TestCallOverTCP(t *testing.T) {
	a, _, _ := pairedNets(t)
	ctx := context.Background()
	reply, err := a.Call(ctx, 0, 1, replica.FetchValue{Op: replica.OpID{Coordinator: 0, Seq: 42}})
	if err != nil {
		t.Fatal(err)
	}
	vr, ok := reply.(replica.ValueReply)
	if !ok || vr.Version != 42 || string(vr.Value) != "v42" {
		t.Fatalf("bad reply: %#v", reply)
	}
	// Local fast path: a hosts node 0.
	reply, err = a.Call(ctx, 0, 0, replica.FetchValue{Op: replica.OpID{Seq: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if vr := reply.(replica.ValueReply); vr.Version != 7 {
		t.Fatalf("local call: %#v", vr)
	}
}

// TestOutOfOrderCorrelation floods one connection with out-of-order
// completions and checks every caller gets its own reply back.
func TestOutOfOrderCorrelation(t *testing.T) {
	addrs := freeAddrs(t, 1)
	book := map[nodeset.ID]string{1: addrs[0]}
	srv := New(book)
	srv.Register(1, echoHandler(func(seq uint64) time.Duration {
		return time.Duration(seq%5) * time.Millisecond // later calls often finish first
	}))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := New(book, WithPoolSize(1)) // force every call through ONE socket
	defer cli.Close()

	const callers, each = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := uint64(g*1000 + i)
				reply, err := cli.Call(context.Background(), 99, 1, replica.FetchValue{Op: replica.OpID{Seq: seq}})
				if err != nil {
					errs <- err
					return
				}
				if vr := reply.(replica.ValueReply); vr.Version != seq {
					errs <- fmt.Errorf("caller %d got reply for seq %d, want %d", g, vr.Version, seq)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := cli.Stats().Calls; got != callers*each {
		t.Errorf("calls counted %d, want %d", got, callers*each)
	}
	if dials := cli.dials.Load(); dials != 1 {
		t.Errorf("pipelined run dialed %d times, want 1", dials)
	}
	// Coalescing accounting must balance: frames sent in some number of
	// flushes, never more flushes than frames.
	if fl, fr := cli.flushes.Load(), cli.framesSent.Load(); fl > fr || fr != callers*each {
		t.Errorf("flushes=%d framesSent=%d want framesSent=%d, flushes<=frames", fl, fr, callers*each)
	}
}

// TestHandlerErrorPassesThrough: application errors from the remote
// handler must come back as application errors, not ErrCallFailed.
func TestHandlerErrorPassesThrough(t *testing.T) {
	addrs := freeAddrs(t, 1)
	book := map[nodeset.ID]string{1: addrs[0]}
	srv := New(book)
	srv.Register(1, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		return nil, errors.New("replica is stale")
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := New(book)
	defer cli.Close()
	_, err := cli.Call(context.Background(), 99, 1, replica.StateQuery{})
	if err == nil || errors.Is(err, transport.ErrCallFailed) {
		t.Fatalf("want application error, got %v", err)
	}
	if err.Error() != "replica is stale" {
		t.Errorf("error text mangled: %q", err)
	}
	if cli.Stats().FailedCalls != 0 {
		t.Error("application error miscounted as failed call")
	}
}

func TestMulticastOrderAndResults(t *testing.T) {
	a, _, _ := pairedNets(t)
	targets := nodeset.New(0, 1)
	var got []nodeset.ID
	a.MulticastFunc(context.Background(), 0, targets, replica.LockRequest{Op: replica.OpID{Seq: 1}, Mode: replica.LockRead}, func(to nodeset.ID, r transport.Result) {
		got = append(got, to)
		if r.Err != nil {
			t.Errorf("node %d: %v", to, r.Err)
		} else if ack := r.Reply.(replica.Ack); !ack.OK {
			t.Errorf("node %d: not granted", to)
		}
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("callback order %v, want [0 1]", got)
	}
}

func TestServedCounters(t *testing.T) {
	a, b, _ := pairedNets(t)
	for i := 0; i < 5; i++ {
		if _, err := a.Call(context.Background(), 0, 1, replica.FetchValue{Op: replica.OpID{Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Served(1); got != 5 {
		t.Errorf("server-side Served(1)=%d, want 5 (true count)", got)
	}
	if got := a.Served(1); got != 5 {
		t.Errorf("client-side Served(1)=%d, want 5 (sent proxy)", got)
	}
}

func TestObsAdoption(t *testing.T) {
	reg := obs.New()
	addrs := freeAddrs(t, 2)
	book := map[nodeset.ID]string{1: addrs[0], 2: addrs[1]} // nobody listens for node 2
	srv := New(book)
	srv.Register(1, echoHandler(nil))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := New(book, WithObs(reg))
	defer cli.Close()
	if _, err := cli.Call(context.Background(), 99, 1, replica.FetchValue{Op: replica.OpID{Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tcp_calls_total").Load(); got != 1 {
		t.Errorf("tcp_calls_total=%d, want 1", got)
	}
	if _, err := cli.Call(context.Background(), 99, 2, replica.FetchValue{}); !errors.Is(err, transport.ErrCallFailed) {
		t.Fatalf("call to a dead peer: %v, want ErrCallFailed", err)
	}
	// A reply is timed under its destination; a failure is not timed at all.
	timed := reg.HistogramVec(transport.EndpointCallNs)
	if n1, n2 := timed.Get(1).Count(), timed.Get(2).Count(); n1 != 1 || n2 != 0 {
		t.Errorf("timed calls to node 1, node 2 = %d, %d, want 1, 0", n1, n2)
	}
}
