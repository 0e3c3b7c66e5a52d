package tcpnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// TestBackpressureSaturation drives a connection whose peer accepts but
// never reads: the kernel socket buffers fill, the writer blocks in
// writev, and the (deliberately tiny) writer ring fills behind it. The
// contract under saturation is explicit backpressure, not load shedding —
//
//   - producers that cannot get ring space park on the space broadcast and
//     fail with transport.ErrCallFailed when their deadline expires;
//   - every stall is counted (tcp_flush_stall_total);
//   - no call frame is ever dropped: a frame either reaches the ring or
//     its caller is told why not, so frames-sent plus stall failures
//     accounts for every call.
//
// Run under -race this also exercises the ring's producer-parking paths
// for data races.
func TestBackpressureSaturation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept and hold every connection without reading a byte.
	var holdMu sync.Mutex
	var held []net.Conn
	defer func() {
		holdMu.Lock()
		for _, c := range held {
			c.Close()
		}
		holdMu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			holdMu.Lock()
			held = append(held, c)
			holdMu.Unlock()
		}
	}()

	reg := obs.New()
	book := map[nodeset.ID]string{0: "127.0.0.1:0", 1: ln.Addr().String()}
	n := New(book, WithObs(reg))
	n.outQueue = 2 // tiny ring so saturation needs only a few frames
	defer n.Close()

	const callers = 16
	payload := make([]byte, 1<<20) // 1 MiB frames defeat the socket buffers
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
			defer cancel()
			_, errs[i] = n.Call(ctx, 0, 1, replica.PrepareUpdate{
				Op:         replica.OpID{Coordinator: 0, Seq: uint64(i)},
				Update:     replica.Update{Data: payload},
				NewVersion: 1,
			})
		}(i)
	}
	wg.Wait()

	// The peer never answers, so every call must fail — and with the
	// transport's one advertised error, whether it died waiting for ring
	// space or waiting for a reply.
	for i, err := range errs {
		if !errors.Is(err, transport.ErrCallFailed) {
			t.Errorf("call %d: err = %v, want transport.ErrCallFailed", i, err)
		}
	}
	stalls := reg.Counter("tcp_flush_stall_total").Load()
	if stalls == 0 {
		t.Error("no flush stalls recorded under saturation")
	}
	// No silent drops: every caller that never got ring space failed its
	// call; the rest made it into a writev batch. Together they account
	// for all frames.
	sent := reg.Counter("tcp_frames_sent_total").Load()
	if sent > callers {
		t.Errorf("frames sent %d exceeds calls issued %d", sent, callers)
	}
	t.Logf("stalls=%d framesSent=%d", stalls, sent)
}
