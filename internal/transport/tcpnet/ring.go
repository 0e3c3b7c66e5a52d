package tcpnet

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"

	"coterie/internal/obs"
)

var (
	errRingClosed = errors.New("tcpnet: connection closed")
	errRingFull   = errors.New("tcpnet: writer ring full")
)

// outRing is the MPSC frame queue between callers and one connection's
// writer: a fixed-capacity circular buffer of encoded frames under a
// mutex, with a one-token wakeup channel for the (single) draining writer
// and an on-demand broadcast channel for producers blocked on a full ring.
//
// It replaces the old `chan *frameBuf` handoff for two reasons:
//
//   - The writer drains the whole ring in one critical section and hands
//     the frames to the kernel as one vectored write (net.Buffers /
//     writev), so coalescing needs no copy into an aggregation buffer and
//     no per-frame channel receive.
//   - Backpressure is explicit: a full ring blocks the producer on a
//     space broadcast honoring its context deadline — a frame is never
//     dropped, and a caller that cannot get queue space by its deadline
//     fails the call (mapped to transport.ErrCallFailed above).
//
// The wakeup protocol: every empty→non-empty transition deposits a token
// in wake (capacity 1, non-blocking send); the writer re-checks the ring
// after every token it consumes, so a stale token is a benign spurious
// wakeup and a missed one is impossible. Producers that enqueue onto an
// already non-empty ring skip the token entirely — under load the writer
// is awake and wakeups cost nothing.
type outRing struct {
	mu     sync.Mutex
	frames []*frameBuf // circular storage; fixed capacity
	head   int         // index of the oldest queued frame
	n      int         // queued frames
	closed bool
	space  chan struct{} // non-nil only while a producer waits for space
	wake   chan struct{} // capacity 1; writer wakeup token

	stalls *obs.Counter // tcp_flush_stall_total
}

func newOutRing(capacity int, stalls *obs.Counter) *outRing {
	return &outRing{
		frames: make([]*frameBuf, capacity),
		wake:   make(chan struct{}, 1),
		stalls: stalls,
	}
}

// enqueue queues f for the writer, blocking while the ring is full until
// space frees, the ring closes, or ctx ends (nil ctx means block
// indefinitely — background work like server replies). ctx.Done() is
// fetched only on the full-ring slow path, so callers carrying a lazy
// deadline context never materialize its channel just to enqueue. On
// error the caller keeps ownership of f. Frames are never dropped: the
// only outcomes are "queued" and "caller told why not".
func (r *outRing) enqueue(ctx context.Context, f *frameBuf) error {
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return errRingClosed
		}
		if r.n < len(r.frames) {
			break
		}
		// Full ring: count the stall and park on the space broadcast,
		// allocated lazily so the never-full fast path stays alloc-free.
		r.stalls.Inc()
		if r.space == nil {
			r.space = make(chan struct{})
		}
		sp := r.space
		r.mu.Unlock()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-sp:
		case <-done:
			return context.Canceled
		}
		r.mu.Lock()
	}
	r.frames[(r.head+r.n)%len(r.frames)] = f
	r.n++
	first := r.n == 1
	r.mu.Unlock()
	if first {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// tryEnqueue queues f without ever blocking: a full or closed ring
// returns an error and the caller keeps ownership of f. This is the
// one-way send path — fire-and-forget messages drop under saturation
// instead of stalling their caller, which calls (and their replies)
// never do.
func (r *outRing) tryEnqueue(f *frameBuf) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errRingClosed
	}
	if r.n == len(r.frames) {
		r.stalls.Inc()
		r.mu.Unlock()
		return errRingFull
	}
	r.frames[(r.head+r.n)%len(r.frames)] = f
	r.n++
	first := r.n == 1
	r.mu.Unlock()
	if first {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// gather moves every queued frame into scratch (reused across flushes)
// and opens queue space, returning the batch and total byte size. Blocks
// parked producers are released before any I/O happens, so enqueues
// overlap the writer's syscall. Returns ok=false once the ring is closed;
// leftover frames are recycled here because the connection is dead and no
// writer will flush them.
func (r *outRing) gather(scratch []*frameBuf) (batch []*frameBuf, total int, ok bool) {
	r.mu.Lock()
	for r.n == 0 && !r.closed {
		r.mu.Unlock()
		<-r.wake
		r.mu.Lock()
	}
	if r.closed {
		for i := 0; i < r.n; i++ {
			idx := (r.head + i) % len(r.frames)
			putBuf(r.frames[idx])
			r.frames[idx] = nil
		}
		r.n = 0
		r.mu.Unlock()
		return scratch[:0], 0, false
	}
	batch = scratch[:0]
	for i := 0; i < r.n; i++ {
		idx := (r.head + i) % len(r.frames)
		f := r.frames[idx]
		r.frames[idx] = nil
		batch = append(batch, f)
		total += len(f.b)
	}
	r.head = (r.head + r.n) % len(r.frames)
	r.n = 0
	if r.space != nil {
		close(r.space)
		r.space = nil
	}
	r.mu.Unlock()
	return batch, total, true
}

// tryGather is gather's non-blocking tail: it appends whatever queued
// since the last gather to batch without parking. ok=false means the ring
// closed (batch's frames are NOT recycled; the caller owns them).
func (r *outRing) tryGather(batch []*frameBuf, total int) ([]*frameBuf, int, bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return batch, total, false
	}
	for i := 0; i < r.n; i++ {
		idx := (r.head + i) % len(r.frames)
		f := r.frames[idx]
		r.frames[idx] = nil
		batch = append(batch, f)
		total += len(f.b)
	}
	r.head = (r.head + r.n) % len(r.frames)
	r.n = 0
	if r.space != nil {
		close(r.space)
		r.space = nil
	}
	r.mu.Unlock()
	return batch, total, true
}

// close marks the ring dead, releases blocked producers, and wakes the
// writer so it can recycle leftover frames and exit.
func (r *outRing) close() {
	r.mu.Lock()
	r.closed = true
	if r.space != nil {
		close(r.space)
		r.space = nil
	}
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// writeRing is one connection's writer: it drains the ring and hands each
// batch to the kernel as a single vectored write. net.Buffers over a
// *net.TCPConn goes down the writev path, so a batch of coalesced frames
// costs one syscall and zero copies — the pooled encode buffers are the
// iovec entries. kill tears the connection down on write failure.
func (n *Network) writeRing(nc net.Conn, r *outRing, kill func()) {
	scratch := make([]*frameBuf, 0, len(r.frames))
	iov := make([][]byte, 0, len(r.frames))
	// WriteTo advances the Buffers header as it consumes entries, so it
	// gets a throwaway header over iov's backing array and iov itself stays
	// reusable at full capacity. The header escapes through WriteTo's
	// pointer receiver: declared here it is one object per connection,
	// inside the loop it was one per flush.
	var bufs net.Buffers
	for {
		batch, total, ok := r.gather(scratch)
		if !ok {
			return
		}
		if len(batch) == 1 {
			// Micro-batch: a lone frame usually means the producers that
			// will complete next are runnable but not yet run (handlers
			// finishing a round, a multicast mid-fan-out). Yielding lets
			// them enqueue so their frames share this writev; on an idle
			// connection the yield is a no-op scheduler pass. Keep yielding
			// while each pass actually surfaces new frames (bounded, so a
			// steady trickle cannot delay a flush indefinitely).
			for spins := 0; spins < 3; spins++ {
				prev := len(batch)
				runtime.Gosched()
				if batch, total, ok = r.tryGather(batch, total); !ok {
					for i, f := range batch {
						putBuf(f)
						batch[i] = nil
					}
					return
				}
				if len(batch) == prev {
					break
				}
			}
		}
		scratch = batch[:0] // batch capacity covers a full ring; reuse it
		iov = iov[:0]
		for _, f := range batch {
			iov = append(iov, f.b)
		}
		n.flushes.Inc()
		n.framesSent.Add(uint64(len(batch)))
		n.bytesSent.Add(uint64(total))
		bufs = iov
		_, err := bufs.WriteTo(nc)
		for i, f := range batch {
			putBuf(f)
			batch[i] = nil
		}
		if err != nil {
			kill()
			return
		}
	}
}
