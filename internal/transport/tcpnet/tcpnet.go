// Package tcpnet is the networked data plane: a transport.Net
// implementation that carries wire-encoded protocol messages over TCP so
// the coterie protocols run across real processes, not only inside the
// in-process simulator.
//
// The transport preserves the simulator's RPC contract exactly (see
// transport.Net): Call returns transport.ErrCallFailed — and only that —
// for delivery failures (refused or broken connections, peer crashes
// mid-call, context expiry), while errors returned by the remote handler
// travel back as application errors. Protocol code above the seam
// (coordinator, replica, election, load tracking) runs unmodified on
// either transport.
//
// # Design
//
//   - Framing: length-prefixed frames over TCP, one wire.Marshal-encoded
//     message per frame (layout in frame.go and DESIGN.md §9).
//   - Pipelining: every connection is fully pipelined. A correlation-ID
//     multiplexer lets any number of in-flight calls share one
//     connection; replies match back by ID, so a slow handler never
//     blocks the calls queued behind it (no head-of-line blocking at the
//     RPC layer).
//   - Flush coalescing: each connection owns a writer goroutine that
//     drains an MPSC frame ring and hands every frame available at that
//     moment to the kernel as one vectored write (net.Buffers → writev).
//     Under load this batches many small protocol messages (lock
//     requests, acks, 2PC votes) per syscall without copying them into an
//     aggregation buffer; at low load the first frame flushes
//     immediately, adding no latency. A full ring applies backpressure:
//     the caller blocks for queue space honoring its deadline — frames
//     are never dropped.
//   - Shared-nothing dispatch: the pending-call table is sharded per
//     connection, correlation IDs allocate from a per-connection atomic,
//     and a caller's quorum traffic is steered onto one socket per peer
//     (slot by caller identity), so one multicast round coalesces into
//     one flush per peer.
//   - Buffer reuse: encodes stage through pooled buffers that become the
//     writev iovec entries; reads parse frames in place out of a
//     per-connection window and decode without an intermediate copy
//     (wire decoding copies byte fields, so buffers are never aliased by
//     retained messages). Steady state the hot path allocates only what
//     decoding itself requires — the decoded message.
//   - Recovery: a connection dies as a unit on its first I/O error,
//     failing in-flight calls with ErrCallFailed. The pool slot re-dials
//     on the next call, so a restarted peer is reached transparently.
package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

const (
	// outQueueLen is each connection's writer-ring depth. Deep enough to
	// absorb a multicast burst without parking senders, shallow enough to
	// bound memory on a stalled peer (past it, backpressure blocks the
	// caller until its deadline).
	outQueueLen = 256

	// readBufSize is the per-connection read window.
	readBufSize = 64 << 10

	defaultDialTimeout = 2 * time.Second
	defaultPoolSize    = 2
)

// Network is a TCP-backed transport.Net. The address book (node ID →
// host:port) is fixed at construction; handlers for locally hosted nodes
// attach via Register and begin serving after Start. Remote peers are
// dialed lazily on first call.
type Network struct {
	writeMu sync.Mutex
	local   atomic.Pointer[localTable]

	peers    []*peer // indexed by node ID; nil = no address known
	poolSize int
	outQueue int // writer-ring depth per connection

	dialTimeout time.Duration

	baseCtx context.Context // parent of every served handler context
	cancel  context.CancelFunc
	closed  chan struct{}

	lnMu      sync.Mutex
	listeners []net.Listener
	conns     map[*serverConn]struct{}
	lnWG      sync.WaitGroup

	// Always-real counters (Stats must work without a registry); WithObs
	// adopts the same cells so metrics and Stats read identical state.
	calls       *obs.Counter
	failed      *obs.Counter
	localCalls  *obs.Counter
	dials       *obs.Counter
	dialErrors  *obs.Counter
	evicted     *obs.Counter
	framesSent  *obs.Counter
	framesRecv  *obs.Counter
	bytesSent   *obs.Counter
	bytesRecv   *obs.Counter
	flushes     *obs.Counter
	flushStalls *obs.Counter    // writer-ring-full backpressure events
	served      *obs.CounterVec // per hosted node
	sent        *obs.CounterVec // per remote peer, requests sent

	// Present only with WithObs; recording on nil is a no-op, and without
	// a registry no call reads the clock (a peer's callNs cell is nil).
	obsReg      *obs.Registry
	flushSize   *obs.Histogram
	writevBytes *obs.Histogram
	mcFanout    *obs.Histogram
	outDepth    *obs.Gauge // sampled writer-ring depth at enqueue

	scratch sync.Pool // *mcScratch
}

type localTable struct {
	eps []*localEndpoint // indexed by node ID; nil = not hosted here
}

func (t *localTable) get(id nodeset.ID) *localEndpoint {
	if t == nil || id < 0 || int(id) >= len(t.eps) {
		return nil
	}
	return t.eps[id]
}

// localEndpoint is a node hosted in this process. The handler swaps
// atomically on re-registration (mux layering, node restart); the served
// counter belongs to the node for the network's lifetime.
type localEndpoint struct {
	id      nodeset.ID
	handler atomic.Pointer[transport.Handler]
	served  *obs.Counter
}

// Option configures a Network.
type Option func(*Network)

// WithObs attaches a metrics registry; the transport's counters appear
// under tcp_* names and call latency / flush batching histograms are
// recorded.
func WithObs(r *obs.Registry) Option { return func(n *Network) { n.obsReg = r } }

// WithPoolSize sets how many connections are kept per peer.
func WithPoolSize(k int) Option {
	return func(n *Network) {
		if k > 0 {
			n.poolSize = k
		}
	}
}

// WithDialTimeout bounds connection establishment.
func WithDialTimeout(d time.Duration) Option {
	return func(n *Network) {
		if d > 0 {
			n.dialTimeout = d
		}
	}
}

// New builds a Network over the given address book. No sockets are opened
// until Start (server side) or the first Call (client side).
func New(addrs map[nodeset.ID]string, opts ...Option) *Network {
	n := &Network{
		poolSize:    defaultPoolSize,
		outQueue:    outQueueLen,
		dialTimeout: defaultDialTimeout,
		closed:      make(chan struct{}),
		conns:       make(map[*serverConn]struct{}),
		calls:       new(obs.Counter),
		failed:      new(obs.Counter),
		localCalls:  new(obs.Counter),
		dials:       new(obs.Counter),
		dialErrors:  new(obs.Counter),
		evicted:     new(obs.Counter),
		framesSent:  new(obs.Counter),
		framesRecv:  new(obs.Counter),
		bytesSent:   new(obs.Counter),
		bytesRecv:   new(obs.Counter),
		flushes:     new(obs.Counter),
		flushStalls: new(obs.Counter),
		served:      new(obs.CounterVec),
		sent:        new(obs.CounterVec),
	}
	n.baseCtx, n.cancel = context.WithCancel(context.Background())
	for _, o := range opts {
		o(n)
	}
	maxID := nodeset.ID(-1)
	for id := range addrs {
		if id < 0 {
			panic("tcpnet: negative node ID in address book")
		}
		if id > maxID {
			maxID = id
		}
	}
	n.peers = make([]*peer, maxID+1)
	for id, addr := range addrs {
		p := &peer{id: id, addr: addr, sent: n.sent.At(int(id)),
			callNs: n.obsReg.HistogramVec(transport.EndpointCallNs).At(int(id))} // nil without a registry
		p.pool = make([]peerSlot, n.poolSize)
		n.peers[id] = p
	}
	if n.obsReg != nil {
		n.obsReg.AdoptCounter("tcp_calls_total", n.calls)
		n.obsReg.AdoptCounter("tcp_calls_failed_total", n.failed)
		n.obsReg.AdoptCounter("tcp_calls_local_total", n.localCalls)
		n.obsReg.AdoptCounter("tcp_dials_total", n.dials)
		n.obsReg.AdoptCounter("tcp_dial_errors_total", n.dialErrors)
		n.obsReg.AdoptCounter("tcp_conns_evicted_total", n.evicted)
		n.obsReg.AdoptCounter("tcp_frames_sent_total", n.framesSent)
		n.obsReg.AdoptCounter("tcp_frames_recv_total", n.framesRecv)
		n.obsReg.AdoptCounter("tcp_bytes_sent_total", n.bytesSent)
		n.obsReg.AdoptCounter("tcp_bytes_recv_total", n.bytesRecv)
		n.obsReg.AdoptCounter("tcp_flushes_total", n.flushes)
		n.obsReg.AdoptCounter("tcp_flush_stall_total", n.flushStalls)
		n.obsReg.AdoptCounterVec("tcp_endpoint_served_total", n.served)
		n.obsReg.AdoptCounterVec("tcp_peer_requests_sent_total", n.sent)
		n.flushSize = n.obsReg.Histogram("tcp_flush_frames")
		n.writevBytes = n.obsReg.Histogram("tcp_writev_bytes")
		n.mcFanout = n.obsReg.Histogram("tcp_multicast_fanout")
		n.outDepth = n.obsReg.Gauge("tcp_out_queue_depth")
	}
	n.scratch.New = func() any { return new(mcScratch) }
	return n
}

var (
	_ transport.Net         = (*Network)(nil)
	_ transport.AsyncSender = (*Network)(nil)
)

// SendAsync delivers req one-way to every target (transport.AsyncSender).
// Hosted targets dispatch inline on the caller's goroutine — release
// handlers are cheap and never park for long. Remote targets get a
// request frame with the one-way correlation ID, so the peer serves it
// and sends nothing back; the enqueue never blocks (a saturated ring
// drops the send — it is best-effort by contract, and the writer is
// behind by a full ring anyway).
//
// ctx contributes only its steering key and trace context to the outgoing
// frames (the trace is what lets one-way commits and push-throughs land in
// the receiving replica's flight recorder under the operation's trace ID);
// deadlines and cancellation are ignored per the AsyncSender contract.
func (n *Network) SendAsync(ctx context.Context, from nodeset.ID, targets nodeset.Set, req transport.Message) {
	if targets.Empty() {
		return
	}
	// One-way sends outlive the operation that issued them, so the caller's
	// cancellation and deadline must not apply. Untraced sends (the common
	// case) ride the network's base context exactly as before — zero
	// per-send allocations; a sampled operation pays one detached-context
	// allocation to carry its trace tag onto the frames.
	sendCtx := n.baseCtx
	if obs.TraceFrom(ctx).Valid() {
		sendCtx = context.WithoutCancel(ctx)
	}
	var buf [16]nodeset.ID
	local := n.local.Load()
	for _, id := range targets.AppendIDs(buf[:0]) {
		if ep := local.get(id); ep != nil {
			ep.served.Inc()
			h := *ep.handler.Load()
			h(sendCtx, from, req) //nolint:errcheck // one-way: outcome is discarded
			continue
		}
		p := n.peerOf(id)
		if p == nil {
			continue
		}
		p.sent.Inc()
		c, err := p.conn(sendCtx, n, from)
		if err != nil {
			continue
		}
		c.sendOneWay(sendCtx, from, req)
	}
}

// Register attaches the handler for a node hosted in this process.
// Re-registering an ID swaps its handler atomically (used to layer a mux
// over a node's base handler) while keeping its served counter.
func (n *Network) Register(id nodeset.ID, h transport.Handler) {
	if h == nil {
		panic("tcpnet: nil handler")
	}
	if id < 0 {
		panic("tcpnet: negative node ID")
	}
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	old := n.local.Load()
	if ep := old.get(id); ep != nil {
		ep.handler.Store(&h)
		return
	}
	size := int(id) + 1
	if old != nil && len(old.eps) > size {
		size = len(old.eps)
	}
	eps := make([]*localEndpoint, size)
	if old != nil {
		copy(eps, old.eps)
	}
	ep := &localEndpoint{id: id, served: n.served.At(int(id))}
	ep.handler.Store(&h)
	eps[id] = ep
	n.local.Store(&localTable{eps: eps})
}

// Call issues one RPC. Local targets (hosted in this process) dispatch
// directly on the caller's goroutine, exactly as the simulator does;
// remote targets go over a pooled, multiplexed connection. Delivery
// failures return transport.ErrCallFailed; remote handler errors pass
// through as application errors.
func (n *Network) Call(ctx context.Context, from, to nodeset.ID, req transport.Message) (transport.Message, error) {
	n.calls.Inc()
	// Only a call that leaves the process is timed: a hosted target is a
	// function call, and timing it would make every remote peer look slow.
	var cell *obs.Histogram
	var start time.Time
	if p := n.peerOf(to); p != nil && p.callNs != nil && n.local.Load().get(to) == nil {
		cell, start = p.callNs, time.Now()
	}
	reply, err := n.call(ctx, from, to, req)
	if err != nil && errors.Is(err, transport.ErrCallFailed) {
		n.failed.Inc()
	}
	if err == nil && cell != nil {
		cell.Record(uint64(time.Since(start)))
	}
	return reply, err
}

func (n *Network) call(ctx context.Context, from, to nodeset.ID, req transport.Message) (transport.Message, error) {
	if ep := n.local.Load().get(to); ep != nil {
		n.localCalls.Inc()
		ep.served.Inc()
		h := *ep.handler.Load()
		return h(ctx, from, req)
	}
	p := n.peerOf(to)
	if p == nil {
		return nil, transport.ErrCallFailed // no address for target
	}
	p.sent.Inc()
	c, err := p.conn(ctx, n, from)
	if err != nil {
		return nil, transport.ErrCallFailed
	}
	return c.roundTrip(ctx, from, req)
}

func (n *Network) peerOf(id nodeset.ID) *peer {
	if id < 0 || int(id) >= len(n.peers) {
		return nil
	}
	return n.peers[id]
}

// Served reports this process's view of traffic at node id: true served
// counts for hosted nodes, requests-sent as a proxy for remote peers.
// Both are monotone, which is all LoadTracker's windowed deltas need.
func (n *Network) Served(id nodeset.ID) uint64 {
	if ep := n.local.Load().get(id); ep != nil {
		return ep.served.Load()
	}
	if p := n.peerOf(id); p != nil {
		return p.sent.Load()
	}
	return 0
}

// Stats mirrors transport.Network.Stats: Messages counts frames on the
// wire (sent + received) plus two per local fast-path call.
func (n *Network) Stats() transport.Stats {
	return transport.Stats{
		Calls:       int64(n.calls.Load()),
		FailedCalls: int64(n.failed.Load()),
		Messages:    int64(n.framesSent.Load() + n.framesRecv.Load() + 2*n.localCalls.Load()),
	}
}

// mcScratch is the pooled working set of one multicast fan-out: target
// list and per-target call state.
type mcScratch struct {
	ids   []nodeset.ID
	calls []mcTarget
}

// mcTarget tracks one multicast target across the send and wait
// phases. done marks targets resolved during the send phase (local
// fast-path, dial failure, encode rejection); the rest hold a started
// call's pending handle until the wait phase collects it.
type mcTarget struct {
	c    *clientConn
	pc   *pendingCall
	corr uint64
	res  transport.Result
	done bool
}

// MulticastFunc fans req out to every target, waits for all, and invokes
// fn once per target in ID order on the caller's goroutine — the same
// contract as the simulator's.
//
// The fan-out is two-phase on the caller's goroutine with no per-target
// goroutines: first every remote target's frame is encoded and enqueued
// (the send phase — because a caller's traffic to one peer rides one
// socket, a whole quorum round coalesces into one writev per peer), then
// the local target's handler runs inline while the remote peers work, then
// the caller parks for each remote reply.
func (n *Network) MulticastFunc(ctx context.Context, from nodeset.ID, targets nodeset.Set, req transport.Message, fn func(to nodeset.ID, r transport.Result)) {
	if targets.Empty() {
		return
	}
	n.mcFanout.Record(uint64(targets.Len()))
	if targets.Len() == 1 {
		id, _ := targets.Min()
		reply, err := n.Call(ctx, from, id, req)
		fn(id, transport.Result{Reply: reply, Err: err})
		return
	}
	sc := n.scratch.Get().(*mcScratch)
	sc.ids = targets.AppendIDs(sc.ids[:0])
	var start time.Time
	if n.obsReg != nil {
		start = time.Now()
	}
	if cap(sc.calls) < len(sc.ids) {
		sc.calls = make([]mcTarget, len(sc.ids))
	}
	calls := sc.calls[:len(sc.ids)]

	// Send phase: push every remote target's frame onto its connection's
	// writer ring. Local targets wait for the next phase so their handler
	// runs while the wire traffic is in flight.
	local := n.local.Load()
	for i, id := range sc.ids {
		st := &calls[i]
		*st = mcTarget{}
		if local.get(id) != nil {
			continue
		}
		n.calls.Inc()
		p := n.peerOf(id)
		if p == nil {
			st.res = transport.Result{Err: transport.ErrCallFailed}
			st.done = true
			n.failed.Inc()
			continue
		}
		p.sent.Inc()
		c, err := p.conn(ctx, n, from)
		if err != nil {
			st.res = transport.Result{Err: transport.ErrCallFailed}
			st.done = true
			n.failed.Inc()
			continue
		}
		pc, corr, err := c.start(ctx, from, req)
		if err != nil {
			st.res = transport.Result{Err: err}
			st.done = true
			if errors.Is(err, transport.ErrCallFailed) {
				n.failed.Inc()
			}
			continue
		}
		st.c, st.pc, st.corr = c, pc, corr
	}

	// Local phase: hosted targets dispatch inline, exactly as Call would.
	for i, id := range sc.ids {
		if ep := local.get(id); ep != nil {
			n.calls.Inc()
			n.localCalls.Inc()
			ep.served.Inc()
			h := *ep.handler.Load()
			reply, err := h(ctx, from, req)
			calls[i].res = transport.Result{Reply: reply, Err: err}
			calls[i].done = true
		}
	}

	// Wait phase: collect every started call's reply (or its deadline).
	for i := range calls {
		st := &calls[i]
		if st.done {
			continue
		}
		reply, err := st.c.wait(ctx, st.pc, st.corr)
		if err != nil && errors.Is(err, transport.ErrCallFailed) {
			n.failed.Inc()
		}
		if err == nil && n.obsReg != nil {
			n.peers[sc.ids[i]].callNs.Record(uint64(time.Since(start)))
		}
		st.res = transport.Result{Reply: reply, Err: err}
	}
	for i, id := range sc.ids {
		fn(id, calls[i].res)
	}
	for i := range calls {
		calls[i] = mcTarget{}
	}
	n.scratch.Put(sc)
}

// Close shuts the transport down: cancels every served handler context,
// stops listeners, and closes every connection in both directions.
// In-flight calls fail with ErrCallFailed.
func (n *Network) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
	}
	close(n.closed)
	n.lnMu.Lock()
	lns := n.listeners
	n.listeners = nil
	conns := make([]*serverConn, 0, len(n.conns))
	for sc := range n.conns {
		conns = append(conns, sc)
	}
	n.lnMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, sc := range conns {
		sc.close()
	}
	for _, p := range n.peers {
		if p != nil {
			p.closeAll()
		}
	}
	// Cancel handler contexts only after every connection is dead, so a
	// "killed" node can never deliver a late reply — parked handlers wake
	// into a connection that will drop their response, exactly as a real
	// crash would.
	n.cancel()
	n.lnWG.Wait()
	return nil
}

// Addr returns the address book entry for id ("" if unknown).
func (n *Network) Addr(id nodeset.ID) string {
	if p := n.peerOf(id); p != nil {
		return p.addr
	}
	return ""
}

func (n *Network) String() string {
	return fmt.Sprintf("tcpnet(%d peers)", len(n.peers))
}
