package tcpnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// TestCallFailureMapping is the failure-semantics contract (DESIGN.md §9):
// every delivery failure surfaces as transport.ErrCallFailed — never a raw
// net.OpError, i/o timeout, or EOF — because protocol code branches on
// errors.Is(err, transport.ErrCallFailed) to tell "peer unreachable" from
// "peer said no".
func TestCallFailureMapping(t *testing.T) {
	ping := replica.FetchValue{Op: replica.OpID{Seq: 1}}
	cases := []struct {
		name string
		// run induces one failure and returns the resulting call error.
		run func(t *testing.T) error
	}{
		{
			name: "connection refused",
			run: func(t *testing.T) error {
				// Address book points at a reserved-but-unbound port.
				addrs := freeAddrs(t, 1)
				cli := New(map[nodeset.ID]string{1: addrs[0]}, WithDialTimeout(250*time.Millisecond))
				defer cli.Close()
				_, err := cli.Call(context.Background(), 99, 1, ping)
				return err
			},
		},
		{
			name: "peer killed mid-call",
			run: func(t *testing.T) error {
				addrs := freeAddrs(t, 1)
				book := map[nodeset.ID]string{1: addrs[0]}
				srv := New(book)
				entered := make(chan struct{})
				srv.Register(1, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
					close(entered)
					<-ctx.Done() // park until the network dies under us
					return nil, ctx.Err()
				})
				if err := srv.Start(); err != nil {
					t.Fatal(err)
				}
				cli := New(book)
				defer cli.Close()
				go func() {
					<-entered
					srv.Close() // kill the peer while the call is in flight
				}()
				_, err := cli.Call(context.Background(), 99, 1, ping)
				return err
			},
		},
		{
			name: "deadline expiry with unresponsive handler",
			run: func(t *testing.T) error {
				addrs := freeAddrs(t, 1)
				book := map[nodeset.ID]string{1: addrs[0]}
				srv := New(book)
				srv.Register(1, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
					<-ctx.Done() // propagated deadline unblocks this
					return nil, ctx.Err()
				})
				if err := srv.Start(); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				cli := New(book)
				defer cli.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer cancel()
				_, err := cli.Call(ctx, 99, 1, ping)
				return err
			},
		},
		{
			name: "deadline already expired",
			run: func(t *testing.T) error {
				addrs := freeAddrs(t, 1)
				cli := New(map[nodeset.ID]string{1: addrs[0]})
				defer cli.Close()
				ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
				defer cancel()
				time.Sleep(time.Millisecond)
				_, err := cli.Call(ctx, 99, 1, ping)
				return err
			},
		},
		{
			name: "no address for target",
			run: func(t *testing.T) error {
				cli := New(map[nodeset.ID]string{})
				defer cli.Close()
				_, err := cli.Call(context.Background(), 99, 7, ping)
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatal("call unexpectedly succeeded")
			}
			if !errors.Is(err, transport.ErrCallFailed) {
				t.Fatalf("got %v (%T), want transport.ErrCallFailed", err, err)
			}
		})
	}
}

// TestRestartRedial is the recovery half of the contract: after a peer is
// killed and a new instance binds the same address, the next call through
// the same client re-dials transparently (the dead pooled connection is
// evicted); no client-side reset is needed.
func TestRestartRedial(t *testing.T) {
	addrs := freeAddrs(t, 1)
	book := map[nodeset.ID]string{1: addrs[0]}

	start := func() *Network {
		srv := New(book)
		srv.Register(1, echoHandler(nil))
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := start()
	cli := New(book, WithPoolSize(1), WithDialTimeout(250*time.Millisecond))
	defer cli.Close()

	call := func(seq uint64) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		reply, err := cli.Call(ctx, 99, 1, replica.FetchValue{Op: replica.OpID{Seq: seq}})
		if err != nil {
			return err
		}
		if vr := reply.(replica.ValueReply); vr.Version != seq {
			t.Fatalf("cross-wired reply: got %d want %d", vr.Version, seq)
		}
		return nil
	}

	if err := call(1); err != nil {
		t.Fatalf("before kill: %v", err)
	}
	srv.Close()

	// While down: calls fail with ErrCallFailed (first one detects the
	// broken pooled connection, later ones fail at dial).
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := call(2)
		if err != nil {
			if !errors.Is(err, transport.ErrCallFailed) {
				t.Fatalf("down-peer error not mapped: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls kept succeeding after peer kill")
		}
	}

	// Restart on the same address: the same client must reach the new
	// instance without being rebuilt.
	srv = start()
	defer srv.Close()
	var err error
	for i := 0; i < 50; i++ {
		if err = call(3); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restarted peer never reachable: %v", err)
	}
	if ev := cli.evicted.Load(); ev == 0 {
		t.Error("restart path evicted no pooled connections")
	}
}
