package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
	"coterie/internal/wire"
)

// maxServeWorkers bounds the idle workers an accepted connection keeps
// (transport.Workers). Concurrency is never capped — the bound only
// decides how many warm, already-grown stacks outlive a burst.
const maxServeWorkers = 32

// Start opens a listener for every locally registered node that has an
// address-book entry and begins serving. Register before Start; handler
// swaps after Start take effect immediately (the table is read per
// request).
func (n *Network) Start() error {
	t := n.local.Load()
	if t == nil {
		return fmt.Errorf("tcpnet: Start with no registered nodes")
	}
	for _, ep := range t.eps {
		if ep == nil {
			continue
		}
		p := n.peerOf(ep.id)
		if p == nil {
			continue // local-only endpoint (e.g. a client identity)
		}
		ln, err := net.Listen("tcp", p.addr)
		if err != nil {
			return fmt.Errorf("tcpnet: listen %s for node %d: %w", p.addr, ep.id, err)
		}
		n.lnMu.Lock()
		n.listeners = append(n.listeners, ln)
		n.lnMu.Unlock()
		n.lnWG.Add(1)
		go n.acceptLoop(ln, ep)
	}
	return nil
}

func (n *Network) acceptLoop(ln net.Listener, ep *localEndpoint) {
	defer n.lnWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		sc := &serverConn{
			n:   n,
			ep:  ep,
			nc:  nc,
			out: newOutRing(n.outQueue, n.flushStalls, n.outDepth),
		}
		sc.pool = transport.NewWorkers(maxServeWorkers, sc.serveOne)
		if !n.track(sc) {
			nc.Close()
			return
		}
		go sc.readLoop()
		go n.writeRing(sc.nc, sc.out, sc.close)
	}
}

func (n *Network) track(sc *serverConn) bool {
	n.lnMu.Lock()
	defer n.lnMu.Unlock()
	select {
	case <-n.closed:
		return false
	default:
	}
	n.conns[sc] = struct{}{}
	return true
}

func (n *Network) untrack(sc *serverConn) {
	n.lnMu.Lock()
	delete(n.conns, sc)
	n.lnMu.Unlock()
}

// serverConn is the serving side of one accepted connection. Requests
// dispatch to a per-connection pool of persistent worker goroutines — the
// pipelined mirror of the client side: a slow handler never blocks the
// requests queued behind it, and replies are written in completion order,
// matched back by correlation ID.
//
// The pool exists because goroutine-per-request was measurable: protocol
// handlers call deep into coordinator/replica code, and freshly spawned
// goroutines paid for stack growth (runtime.morestack/newstack ≈ 10% of
// daemon CPU) on every request. Persistent workers grow their stacks once
// and keep them. Dispatch never blocks the read loop: a request that
// finds no idle worker starts one, so a handler parked on a contended lock
// queue cannot head-of-line-block the requests arriving behind it. The
// scheme is transport.Workers, shared with the simulated network's
// multicast legs.
type serverConn struct {
	n    *Network
	ep   *localEndpoint
	nc   net.Conn
	out  *outRing
	once sync.Once

	pool *transport.Workers[srvReq] // dispatched to by readLoop only, which closes it
}

// srvReq is one decoded request handed from the read loop to a worker.
type srvReq struct {
	corr    uint64
	from    nodeset.ID
	timeout time.Duration
	tc      obs.TraceContext
	msg     transport.Message
}

func (sc *serverConn) close() {
	sc.once.Do(func() {
		sc.nc.Close()
		sc.out.close()
		sc.n.untrack(sc)
	})
}

func (sc *serverConn) readLoop() {
	defer sc.pool.Close()
	defer sc.close()
	fr := newFrameReader(sc.nc)
	for {
		body, err := fr.next()
		if err != nil {
			return // EOF or broken peer; in-flight handlers finish and fail their writes
		}
		sc.n.framesRecv.Inc()
		sc.n.bytesRecv.Add(uint64(len(body)) + lenSize)
		corr, from, timeout, tc, payload, err := parseRequest(body)
		if err != nil {
			return // protocol violation: tear the connection down
		}
		// Decode in place, straight out of the read window: wire decoding
		// copies byte fields, so the message owns its data and the window
		// can be overwritten by the next frame.
		msg, err := wire.Unmarshal(payload)
		if err != nil {
			// An undecodable payload is an application-level problem for
			// exactly one call, not the connection: report it back (unless
			// the sender declared it isn't listening).
			if corr != oneWayCorr {
				sc.reply(corr, nil, fmt.Errorf("tcpnet: request codec: %v", err))
			}
			continue
		}
		sc.ep.served.Inc()
		sc.pool.Go(srvReq{corr: corr, from: from, timeout: timeout, tc: tc, msg: msg})
	}
}

// serveOne runs one request through the endpoint's handler and queues the
// reply. The handler context carries the caller's propagated deadline —
// a lazily armed deadline.Ctx, so fast handlers that never park never
// touch the timer heap — and is canceled when the whole network closes.
// The worker lends the handler its Leg, whose slot the reply is encoded out
// of before the worker takes its next request.
func (sc *serverConn) serveOne(rq srvReq, own *transport.Leg) {
	ctx := sc.n.baseCtx
	if rq.timeout > 0 {
		dctx, release := deadline.At(ctx, time.Now().Add(rq.timeout))
		defer release()
		ctx = dctx
	}
	if rq.tc.Valid() {
		// Re-attach the propagated trace identity. Only sampled operations
		// mint a context, so the untraced hot path never pays this
		// allocation.
		ctx = obs.WithTrace(ctx, rq.tc)
	}
	h := *sc.ep.handler.Load()
	reply, err := h(own.Lend(ctx), rq.from, rq.msg)
	own.Context = nil
	if rq.corr == oneWayCorr {
		return // fire-and-forget request: the sender dropped the outcome
	}
	sc.reply(rq.corr, reply, err)
}

func (sc *serverConn) reply(corr uint64, reply transport.Message, herr error) {
	f := getBuf()
	appendReply(f, corr, reply, herr)
	if err := sc.out.enqueue(nil, f); err != nil {
		putBuf(f) // caller is gone; it will see ErrCallFailed from its side
	}
}
