package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/wire"
)

// TestCoalescedFlushByteEquality: frames that leave in one vectored
// writev batch must arrive byte-identical to their individual encodings —
// coalescing changes syscall count, never bytes. The stream is then
// re-parsed frame by frame and every payload round-tripped through the
// codec to prove the boundaries survived coalescing.
func TestCoalescedFlushByteEquality(t *testing.T) {
	msgs := []transport.Message{
		replica.LockPrepare{
			Op:         replica.OpID{Coordinator: 2, Seq: 9},
			Update:     replica.Update{Offset: 4, Data: []byte("spec")},
			NewVersion: 7,
			GoodSet:    nodeset.New(0, 1, 2),
		},
		replica.ReadSnap{Op: replica.OpID{Coordinator: 1, Seq: 10}},
		replica.PrepareUpdate{
			Op:         replica.OpID{Coordinator: 0, Seq: 11},
			Update:     replica.Update{Data: bytes.Repeat([]byte("x"), 300)},
			NewVersion: 3,
			StaleSet:   nodeset.New(4),
			GoodSet:    nodeset.New(0, 1),
		},
		replica.Commit{Op: replica.OpID{Coordinator: 3, Seq: 12}},
		replica.DecisionQuery{Op: replica.OpID{Coordinator: 1, Seq: 13}, NewVersion: 5},
	}
	ctx := context.Background() // no deadline: frames encode deterministically
	frames := make([]*frameBuf, len(msgs))
	var expected []byte
	for i, m := range msgs {
		frames[i] = getBuf()
		if err := appendRequest(frames[i], uint64(i+1), 6, ctx, m); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, frames[i].b...)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// All frames are queued before the writer starts, so the first gather
	// drains the whole ring into a single net.Buffers flush.
	reg := obs.New()
	n := New(map[nodeset.ID]string{}, WithObs(reg))
	r := newOutRing(len(frames), n.flushStalls, n.outDepth)
	for _, f := range frames {
		if err := r.enqueue(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	go n.writeRing(out, r, func() {})
	defer r.close()

	got := make([]byte, len(expected))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expected) {
		t.Fatal("coalesced stream differs from concatenated frame encodings")
	}
	if flushes := reg.Counter("tcp_flushes_total").Load(); flushes != 1 {
		t.Errorf("%d flushes for %d pre-queued frames, want 1 (coalesced)", flushes, len(frames))
	}

	// Walk the stream: each frame must parse at exactly its boundary and
	// its payload must decode to a message that re-encodes byte-equal.
	rest := got
	for i, m := range msgs {
		if len(rest) < lenSize {
			t.Fatalf("frame %d: stream exhausted", i)
		}
		size := binary.BigEndian.Uint32(rest[:lenSize])
		body := rest[lenSize : lenSize+int(size)]
		corr, from, timeout, _, payload, err := parseRequest(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if corr != uint64(i+1) || from != 6 || timeout != 0 {
			t.Fatalf("frame %d: header corr=%d from=%v timeout=%v", i, corr, from, timeout)
		}
		decoded, err := wire.Unmarshal(payload)
		if err != nil {
			t.Fatalf("frame %d: payload decode: %v", i, err)
		}
		re, err := wire.Marshal(decoded)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		orig, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, orig) || !bytes.Equal(re, payload) {
			t.Fatalf("frame %d: round trip not byte-equal", i)
		}
		rest = rest[lenSize+int(size):]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after last frame", len(rest))
	}
}

// TestFusedMessageEncodeDoesNotAllocate extends the encode-side alloc
// gates to the fused-path messages the hot loop now sends every
// operation: the speculative LockPrepare request and the SnapReply
// carrying a read snapshot.
func TestFusedMessageEncodeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	var req transport.Message = replica.LockPrepare{
		Op:         replica.OpID{Coordinator: 1, Seq: 99},
		Update:     replica.Update{Offset: 16, Data: []byte("fused-write-payload")},
		NewVersion: 100,
		GoodSet:    nodeset.New(0, 1, 2),
	}
	ctx := context.Background()
	f := getBuf()
	defer putBuf(f)
	if err := appendRequest(f, 1, 2, ctx, req); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := appendRequest(f, 5, 2, ctx, req); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.01 {
		t.Errorf("LockPrepare frame encode allocates %.2f objects per call, want 0", allocs)
	}

	var reply transport.Message = replica.SnapReply{
		State: replica.StateReply{Node: 2, Version: 41, Epoch: nodeset.Range(0, 3), Good: nodeset.New(0, 2), GoodVer: 41},
		Value: bytes.Repeat([]byte("s"), 256),
	}
	appendReply(f, 1, reply, nil)
	if allocs := testing.AllocsPerRun(1000, func() {
		appendReply(f, 9, reply, nil)
	}); allocs > 0.01 {
		t.Errorf("SnapReply frame encode allocates %.2f objects per call, want 0", allocs)
	}
}

// TestRingFlushPathDoesNotAllocate gates the queue-and-drain cycle
// between a producer and the writer: steady-state enqueue, wakeup, and
// batch gather reuse the ring slots and scratch slice — no per-frame
// garbage — and so does the real flush, writeRing on a connection that
// discards, header of the vectored write included.
func TestRingFlushPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	r := newOutRing(4, new(obs.Counter), new(obs.Gauge))
	f := getBuf()
	defer putBuf(f)
	f.b = append(f.b[:0], "frame-bytes"...)
	scratch := make([]*frameBuf, 0, 4)
	// Warm one cycle (drains the wake token path too).
	if err := r.tryEnqueue(f); err != nil {
		t.Fatal(err)
	}
	scratch, _, _ = r.tryGather(scratch[:0], 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := r.tryEnqueue(f); err != nil {
			t.Fatal(err)
		}
		batch, _, ok := r.tryGather(scratch[:0], 0)
		if !ok || len(batch) != 1 {
			t.Fatal("gather lost the frame")
		}
	}); allocs > 0.01 {
		t.Errorf("ring enqueue+gather allocates %.2f objects per cycle, want 0", allocs)
	}

	n := New(nil)
	defer n.Close()
	conn := &discardConn{wrote: make(chan struct{}, 1)}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		n.writeRing(conn, r, func() {})
	}()
	flush := func() {
		f := getBuf()
		f.b = append(f.b[:0], "frame-bytes"...)
		if err := r.tryEnqueue(f); err != nil {
			t.Fatal(err)
		}
		<-conn.wrote
	}
	flush() // the writer's own scratch and header, once per connection
	// AllocsPerRun counts the whole process, the writer's goroutine included.
	if allocs := testing.AllocsPerRun(1000, flush); allocs > 0.01 {
		t.Errorf("ring enqueue+flush allocates %.2f objects per frame, want 0", allocs)
	}
	r.close()
	<-exited
}

// discardConn is a connection whose writes succeed and go nowhere; each one
// is announced on wrote.
type discardConn struct {
	net.Conn // nil: the writer only writes
	wrote    chan struct{}
}

func (c *discardConn) Write(b []byte) (int, error) {
	c.wrote <- struct{}{}
	return len(b), nil
}
