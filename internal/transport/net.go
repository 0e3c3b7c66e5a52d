package transport

import (
	"context"

	"coterie/internal/nodeset"
)

// Net is the RPC surface the protocol layers run on: the coordinator's
// quorum rounds, the replica's propagation calls, and the elector all speak
// exactly this interface, so the same protocol code runs over the
// in-process simulated *Network and over a real socket transport
// (internal/transport/tcpnet) without change.
//
// Implementations must preserve the paper's RPC semantics (Section 3):
//
//   - Call returns ErrCallFailed — and only ErrCallFailed — when the
//     request or its reply could not be delivered (crashed or unreachable
//     peer, connection loss, per-call deadline expiry). Application-level
//     errors returned by the remote handler pass through as ordinary
//     errors; protocol code distinguishes the two with errors.Is.
//   - SendAsync is the one-way send (see below): the write protocol's
//     commits, terminal lock releases and write-through ride it.
//   - MulticastFunc sends req to every target, waits for all of them, and
//     invokes fn once per target in ID order on the caller's goroutine (the
//     simulated network's contract, which the lock-round collectors rely on
//     for determinism). A target whose handler queues behind a lock holds
//     up neither the rest of its round nor anybody else's. The simulated
//     network's one rule, for calls and one-way sends alike: a message leaves
//     its sender's goroutine only to wait, and a handler says when it would
//     (NoWait, ErrWouldWait). tcpnet's legs are in flight side by side
//     anyway; it never sets the marker. A handler a round reaches in process
//     answers into a slot of its Leg (see Handler), valid until fn returns;
//     a round sent under a clock (Timed) starts from it and leaves the last
//     reading there.
//   - Register attaches the handler serving a locally-hosted node;
//     re-registering replaces the handler (node restart with fresh state).
//   - Served reports a monotone per-node served-request counter. A
//     networked transport reports its local view: true service counts for
//     nodes it hosts, requests sent for remote peers.
type Net interface {
	AsyncSender
	Register(id nodeset.ID, h Handler)
	Call(ctx context.Context, from, to nodeset.ID, req Message) (Message, error)
	MulticastFunc(ctx context.Context, from nodeset.ID, targets nodeset.Set, req Message, fn func(to nodeset.ID, r Result))
	Served(id nodeset.ID) uint64
}

// EndpointCallNs names the histogram vector, by destination node ID, in which
// a transport with a registry times every call that returned a reply (a
// failure is not timed: a crashed peer must not look quick). It travels by
// name through the registry, not through Net, so no decorator hides it. A
// destination's cell may not exist until a call to it has been timed: a
// reader takes an absent cell for one with no samples.
const EndpointCallNs = "transport_endpoint_call_ns"

// AsyncSender is the one-way half of Net: SendAsync delivers req to every
// target — no reply is collected and the caller never blocks on the
// network. Delivery is best-effort: an unreachable peer or a saturated
// connection drops the send silently. Protocol code uses it only for
// messages whose replies would change nothing — a decided commit, a
// terminal lock release, a write-through — where waiting for
// acknowledgements buys nothing but a round-trip on the operation's
// critical path.
//
// Ordering caveat: a one-way send is not ordered with respect to later
// calls, even to the same peer. It is only safe for messages that can
// never race a later message about the same operation — i.e. the
// operation is finished and its ID is never used again.
//
// ctx carries request-scoped routing and observability tags (steering
// key, distributed-trace context) onto the outgoing frames; its deadline
// and cancellation are NOT honored — the send is already fire-and-forget.
type AsyncSender interface {
	SendAsync(ctx context.Context, from nodeset.ID, targets nodeset.Set, req Message)
}

// The simulated network is the reference Net implementation.
var (
	_ Net         = (*Network)(nil)
	_ AsyncSender = (*Network)(nil)
)
