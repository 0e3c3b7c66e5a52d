package tcpnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
	"coterie/internal/wire"
)

// pendShards is the pending-table shard count per connection (power of
// two; correlation IDs are sequential, so corr & (pendShards-1) spreads
// adjacent in-flight calls across shards). Sharding keeps the reader
// goroutine's delete and concurrent callers' inserts off one mutex.
const pendShards = 8

// clientConn is one pipelined connection to a peer. Many in-flight calls
// share it: each call registers a correlation ID in its pending-table
// shard, enqueues its encoded frame on the writer ring, and parks on its
// (pooled, reusable) completion channel until the reader matches the
// reply frame back by correlation ID.
//
// The reader decodes replies in place on its own goroutine — straight out
// of the connection's read window — and delivers the decoded message, so
// no frame buffer crosses goroutines on the reply path.
//
// A connection dies as a unit: the first I/O error closes it, fails every
// pending call with ErrCallFailed, and leaves the pool slot to re-dial on
// the next call (transparent recovery once the peer is back).
type clientConn struct {
	n  *Network
	nc net.Conn

	out    *outRing
	closed chan struct{}
	once   sync.Once

	corr atomic.Uint64

	shards [pendShards]pendShard
}

// pendShard is one slice of a connection's pending-call table. Padded so
// shards touched by different callers do not share cache lines.
type pendShard struct {
	mu      sync.Mutex
	dead    bool
	pending map[uint64]*pendingCall
	_       [24]byte
}

func (c *clientConn) shard(corr uint64) *pendShard {
	return &c.shards[corr&(pendShards-1)]
}

// pendingCall is one parked caller. The completion channel has capacity 1
// and is consumed exactly once per use, so the struct recycles through a
// pool; a call abandoned at deadline drains the imminent completion
// before recycling (the reader owns the entry once it leaves the map).
type pendingCall struct {
	ch chan callDone
}

// callDone carries a finished call's outcome: the decoded reply, an
// application error relayed from the remote handler, or
// transport.ErrCallFailed when the connection died underneath the call.
type callDone struct {
	msg transport.Message
	err error
}

var pendingPool = sync.Pool{
	New: func() any { return &pendingCall{ch: make(chan callDone, 1)} },
}

func dialConn(n *Network, addr string, ctx context.Context) (*clientConn, error) {
	n.dials.Inc()
	d := net.Dialer{Timeout: n.dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		n.dialErrors.Inc()
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &clientConn{
		n:      n,
		nc:     nc,
		out:    newOutRing(n.outQueue, n.flushStalls, n.outDepth),
		closed: make(chan struct{}),
	}
	for i := range c.shards {
		c.shards[i].pending = make(map[uint64]*pendingCall)
	}
	go c.readLoop()
	go n.writeRing(c.nc, c.out, c.close)
	return c, nil
}

func (c *clientConn) isDead() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// close tears the connection down once: wakes the writer, closes the
// socket (unblocking the reader), and fails every pending call.
func (c *clientConn) close() {
	c.once.Do(func() {
		close(c.closed)
		c.nc.Close()
		c.out.close()
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			sh.dead = true
			pend := sh.pending
			sh.pending = nil
			sh.mu.Unlock()
			for _, pc := range pend {
				pc.ch <- callDone{err: transport.ErrCallFailed}
			}
		}
		c.n.evicted.Inc()
	})
}

func (c *clientConn) readLoop() {
	fr := newFrameReader(c.nc)
	for {
		body, err := fr.next()
		if err != nil {
			c.close()
			return
		}
		c.n.framesRecv.Inc()
		c.n.bytesRecv.Add(uint64(len(body)) + lenSize)
		kind := body[0]
		corr, k := uvarintAt(body, 1)
		if k <= 0 || (kind != frameReply && kind != frameError) {
			c.close()
			return
		}
		payload := body[1+k:]
		var d callDone
		if kind == frameError {
			d.err = errors.New(string(payload))
		} else if d.msg, err = wire.Unmarshal(payload); err != nil {
			// A peer sending undecodable replies is broken: retire the
			// connection (close fails this call's pending entry too).
			c.close()
			return
		}
		sh := c.shard(corr)
		sh.mu.Lock()
		pc := sh.pending[corr]
		delete(sh.pending, corr)
		sh.mu.Unlock()
		if pc == nil {
			continue // call abandoned at its deadline
		}
		pc.ch <- d
	}
}

// start encodes, registers, and enqueues one pipelined call without
// waiting for its reply — the send half of roundTrip, used directly by
// MulticastFunc to push a whole quorum round onto the wire before parking
// for any reply. A full writer ring applies backpressure here: the caller
// blocks for queue space until its deadline, then fails with
// transport.ErrCallFailed. Delivery problems (dead connection, expired
// deadline) map to ErrCallFailed; only codec rejections pass through raw.
func (c *clientConn) start(ctx context.Context, from nodeset.ID, req transport.Message) (*pendingCall, uint64, error) {
	f := getBuf()
	corr := c.corr.Add(1)
	if err := appendRequest(f, corr, from, ctx, req); err != nil {
		putBuf(f)
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, 0, transport.ErrCallFailed
		}
		return nil, 0, err // codec rejection is a programming error, not a delivery failure
	}
	pc := pendingPool.Get().(*pendingCall)
	sh := c.shard(corr)
	sh.mu.Lock()
	if sh.dead {
		sh.mu.Unlock()
		putBuf(f)
		pendingPool.Put(pc)
		return nil, 0, transport.ErrCallFailed
	}
	sh.pending[corr] = pc
	sh.mu.Unlock()
	if err := c.out.enqueue(ctx, f); err != nil {
		putBuf(f)
		_, aerr := c.abandon(corr, pc)
		return nil, 0, aerr
	}
	return pc, corr, nil
}

// oneWayCorr marks a request frame as fire-and-forget: correlation IDs
// allocate from 1, so 0 is free to tell the server "no reply expected".
const oneWayCorr = 0

// sendOneWay encodes and enqueues a one-way request frame. No pending
// entry is registered (nothing will ever complete it) and the enqueue
// never blocks — a full ring drops the send, honoring the best-effort
// contract of SendAsync (transport.Net).
func (c *clientConn) sendOneWay(ctx context.Context, from nodeset.ID, req transport.Message) {
	f := getBuf()
	if err := appendRequest(f, oneWayCorr, from, ctx, req); err != nil {
		putBuf(f)
		return
	}
	if err := c.out.tryEnqueue(f); err != nil {
		putBuf(f)
	}
}

// waitTimers pools the deadline timers that bound parked calls, so the
// steady state arms and disarms a recycled timer instead of allocating
// one per call. Requires the Go 1.23+ timer semantics (unbuffered
// channel; Stop guarantees no late send), which go.mod opts into.
var waitTimers = sync.Pool{}

// wait parks for a started call's completion or its deadline. A call
// with a deadline parks on a pooled timer rather than ctx.Done(): the
// context never materializes its cancellation channel, which is what
// makes lazy deadline contexts free on this path. The narrowing — early
// parent cancellation no longer interrupts the wait — is safe because
// every event that must end a pipelined call promptly (reply, handler
// error, connection death) arrives through the completion channel, and
// the deadline still bounds the park.
func (c *clientConn) wait(ctx context.Context, pc *pendingCall, corr uint64) (transport.Message, error) {
	d, hasDeadline := ctx.Deadline()
	if !hasDeadline {
		select {
		case done := <-pc.ch:
			pendingPool.Put(pc)
			return done.msg, done.err
		case <-ctx.Done():
			return c.abandon(corr, pc)
		}
	}
	t, _ := waitTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(time.Until(d))
	} else {
		t.Reset(time.Until(d))
	}
	select {
	case done := <-pc.ch:
		t.Stop()
		waitTimers.Put(t)
		pendingPool.Put(pc)
		return done.msg, done.err
	case <-t.C:
		waitTimers.Put(t)
		return c.abandon(corr, pc)
	}
}

// roundTrip issues one pipelined call and blocks for its reply or the
// context's end. Every delivery failure — connection already dead, writer
// ring never drained before the deadline, context expiry — maps to
// transport.ErrCallFailed; only a reply the peer's handler produced (ok
// or error) passes through.
func (c *clientConn) roundTrip(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
	pc, corr, err := c.start(ctx, from, req)
	if err != nil {
		return nil, err
	}
	return c.wait(ctx, pc, corr)
}

// abandon gives up on a registered call. If the entry is still in the
// pending table the caller owns it and can recycle immediately; otherwise
// the reader (or close) has claimed it and a completion is imminent — it
// is drained so the channel is empty before the struct is pooled.
func (c *clientConn) abandon(corr uint64, pc *pendingCall) (transport.Message, error) {
	sh := c.shard(corr)
	sh.mu.Lock()
	_, mine := sh.pending[corr]
	if mine {
		delete(sh.pending, corr)
	}
	sh.mu.Unlock()
	if !mine {
		<-pc.ch
	}
	pendingPool.Put(pc)
	return nil, transport.ErrCallFailed
}

// uvarintAt decodes a uvarint starting at offset i; returns the value and
// the number of bytes consumed (<=0 on malformed input).
func uvarintAt(b []byte, i int) (uint64, int) {
	if i >= len(b) {
		return 0, 0
	}
	var v uint64
	var s uint
	for k, c := range b[i:] {
		if c < 0x80 {
			if k > 9 || k == 9 && c > 1 {
				return 0, -(k + 1)
			}
			return v | uint64(c)<<s, k + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// peer is the client-side view of one remote node: its address and a
// small pool of pipelined connections. Slot choice is by caller identity
// (from % pool), not round-robin: every call a given coordinator issues —
// in particular all targets of one multicast round that share this peer's
// direction — rides the same socket, so a round's frames coalesce into
// the same writev flush instead of splitting across sockets.
type peer struct {
	id     nodeset.ID
	addr   string
	sent   *obs.Counter
	callNs *obs.Histogram // transport.EndpointCallNs cell; nil without a registry
	pool   []peerSlot
}

type peerSlot struct {
	mu sync.Mutex // serializes dialing for this slot
	c  atomic.Pointer[clientConn]
}

// conn returns the live connection for this caller's slot, dialing a
// fresh one if the slot is empty or its connection died (pool eviction).
// Dials for one slot serialize so a burst of callers against a down peer
// produces one dial attempt per slot, not a storm.
func (p *peer) conn(ctx context.Context, n *Network, from nodeset.ID) (*clientConn, error) {
	idx := int(from)
	if key, ok := transport.Steer(ctx); ok {
		// Shard-aware steering: all calls an operation makes under one
		// steer key ride one connection per peer, so a quorum round's
		// frames to that peer coalesce into a single flush instead of
		// waking one writer per pool slot.
		idx = int(key)
	}
	if idx < 0 {
		idx = -idx
	}
	s := &p.pool[idx%len(p.pool)]
	if c := s.c.Load(); c != nil && !c.isDead() {
		return c, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.c.Load(); c != nil && !c.isDead() {
		return c, nil
	}
	c, err := dialConn(n, p.addr, ctx)
	if err != nil {
		return nil, err
	}
	s.c.Store(c)
	return c, nil
}

func (p *peer) closeAll() {
	for i := range p.pool {
		if c := p.pool[i].c.Load(); c != nil {
			c.close()
		}
	}
}
