// Package transport provides the simulated network the replication
// protocols run on: RPC-style request/response messaging between nodes with
// crash-stop failures, network partitions, optional latency injection, and
// per-node message accounting.
//
// The paper's system model (Section 3) assumes RPC communication in which
// the notification RPC.CallFailed is returned to the sender when a message
// cannot be delivered, and fail-stop nodes and links. ErrCallFailed is that
// notification; a call fails when the caller or callee is crashed or the
// two are separated by a partition. Multicast capability is "not required
// but desirable" — Multicast here fans calls out concurrently but counts
// point-to-point messages, so message-cost experiments reflect a network
// without hardware multicast.
//
// # Concurrency model
//
// The data plane is designed so that concurrent calls between disjoint
// node pairs never touch a shared lock:
//
//   - The endpoint table and the partition table are immutable snapshots
//     behind atomic pointers; Call loads them without locking. Register,
//     Partition and Heal copy-on-write under a writer mutex.
//   - Per-node served-request counters are per-endpoint atomics, not a
//     global map, so message accounting is contention-free.
//   - Latency sampling draws from per-endpoint RNG streams (one per node,
//     see WithSeed for the seeding scheme), so calls from different nodes
//     never serialize on a shared RNG.
//   - Multicast fan-out collects into pooled scratch buffers and runs its
//     legs on the caller's goroutine; a leg leaves it only to wait (transit
//     time, a lock queue), for a warm stack of the process-wide leg
//     workers, so the steady state starts no goroutine. Each leg's context
//     and reply slot (Leg) are pooled scratch too.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// ErrCallFailed is the RPC.CallFailed notification: the request or its
// reply could not be delivered. Protocol code distinguishes it from
// application-level errors returned by handlers.
var ErrCallFailed = errors.New("transport: call failed")

// ErrWouldWait is a handler's answer under NoWait to a request it could serve
// only after waiting for another operation. It promises that the attempt changed
// and counted nothing, so the network runs the request again where it may wait.
var ErrWouldWait = errors.New("transport: handler would wait")

// Message is an RPC payload. Concrete protocols define their own typed
// request and response structs.
type Message interface{}

// Handler processes one request at a node and returns the reply. Handlers
// may issue further calls on the same network, but must not hold locks that
// the nested calls' handlers need.
//
// Slot ownership: a handler lent a slot (SlotOf) answers into it and returns
// a pointer into it, so no reply is boxed. Slot and reply are the sender's
// until it lends the slot again — for a multicast, until fn has seen the
// reply — so a caller that keeps a reply copies it, and a handler keeps
// neither its context nor the slot past the call.
type Handler func(ctx context.Context, from nodeset.ID, req Message) (Message, error)

// Stats counts network traffic. A completed call costs two messages
// (request and reply); a failed call costs at most one. A request counts when
// its handler has answered, so never for an answer of ErrWouldWait.
type Stats struct {
	Calls       int64 // calls attempted
	FailedCalls int64 // calls that ended in ErrCallFailed
	Messages    int64 // point-to-point messages delivered
}

// Network is an in-process simulated network. The zero value is not usable;
// use NewNetwork.
type Network struct {
	// writers (Register, Partition, Heal) serialize here; readers go
	// through the atomic snapshots below and never block.
	writeMu sync.Mutex
	reg     atomic.Pointer[registry]
	part    atomic.Pointer[partitionTable]

	latency func(r *rand.Rand) time.Duration
	seed    int64
	encode  func(Message) ([]byte, error)
	decode  func([]byte) (Message, error)
	trace   func(TraceEvent)

	// Traffic counters are always-real obs counters owned by the network:
	// Stats and Load must work with observability disabled, so the network
	// cannot resolve them from a possibly-Nop registry. WithObs adopts the
	// same cells into the registry, making the experiment view (Stats,
	// Load) and the metrics view read identical state.
	calls       *obs.Counter
	failedCalls *obs.Counter
	messages    *obs.Counter
	served      *obs.CounterVec // per-endpoint served requests, indexed by node ID

	// Present only when WithObs attached a registry; recording on the nil
	// defaults is a no-op, and Call skips its clock reads entirely.
	obsReg   *obs.Registry     // attached registry (nil when disabled)
	callNs   *obs.HistogramVec // EndpointCallNs: completed calls by destination
	mcFanout *obs.Histogram

	scratch sync.Pool // *mcScratch
}

// registry is an immutable endpoint table indexed by node ID. Replaced
// wholesale (copy-on-write) by Register; loaded atomically by every call.
type registry struct {
	eps []*endpoint // nil slot = unregistered
}

func (r *registry) get(id nodeset.ID) *endpoint {
	if r == nil || id < 0 || int(id) >= len(r.eps) {
		return nil
	}
	return r.eps[id]
}

// partitionTable is an immutable partition-group assignment indexed by node
// ID; IDs beyond the slice (or a nil table) are in the implicit group 0.
type partitionTable struct {
	group []int32
}

func (p *partitionTable) of(id nodeset.ID) int32 {
	if p == nil || id < 0 || int(id) >= len(p.group) {
		return 0
	}
	return p.group[id]
}

// endpoint is one node's attachment point. The handler is swapped
// atomically on re-registration (node restart with fresh state); the
// served counter and the latency RNG stream belong to the node for the
// network's lifetime, surviving restarts.
type endpoint struct {
	id      nodeset.ID
	handler atomic.Pointer[Handler]
	up      atomic.Bool
	served  *obs.Counter // cell of Network.served for this node ID

	// rng is this endpoint's latency stream, made on its first draw: only a
	// WithLatency network draws, and a source is 4.9 KB to make and seed.
	// Made and sampled under rngMu; contention is limited to concurrent
	// calls sent by the same node.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// Option configures a Network.
type Option func(*Network)

// WithLatency injects a per-message delay sampled by fn. Each message leg
// (request and reply) is delayed independently: the request leg samples
// from the sending node's RNG stream, the reply leg from the replying
// node's stream. fn must be fast; it runs under the sampling endpoint's
// RNG mutex, which only serializes messages sent by the same node.
func WithLatency(fn func(r *rand.Rand) time.Duration) Option {
	return func(n *Network) { n.latency = fn }
}

// WithSeed seeds the network's latency RNG streams. The default seed is 1
// for reproducibility.
//
// Seeding scheme: node i's endpoint draws from an independent stream
// seeded with splitmix64(seed XOR (i+1)·2^32) on its first draw, so every
// endpoint's stream is decorrelated from every other's and from the base
// seed, and identical (seed, registration set) pairs produce identical
// per-endpoint streams. With a single driving goroutine (GOMAXPROCS=1,
// sequential calls) the full latency trace is reproducible; see
// TestLatencyStreamsReproducible.
//
// WithSeed must be given at NewNetwork time (it is an Option); endpoints
// registered before a different seed could take effect would keep their
// original streams.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.seed = seed }
}

// streamSeed derives endpoint id's RNG seed from the network seed.
func streamSeed(seed int64, id nodeset.ID) int64 {
	return int64(splitmix64(uint64(seed) ^ (uint64(id)+1)<<32))
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// output is equidistributed even for sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TraceEvent describes one completed (or failed) call for observability.
type TraceEvent struct {
	From, To nodeset.ID
	Request  Message
	Reply    Message
	Err      error
	Elapsed  time.Duration
}

// WithTrace installs a hook invoked after every call completes. The hook
// runs on the caller's goroutine and must be fast and non-blocking; it
// must not issue calls on the same network. Useful for protocol debugging
// and message-flow assertions in tests.
func WithTrace(fn func(TraceEvent)) Option {
	return func(n *Network) { n.trace = fn }
}

// WithCodec passes every request and reply through an encode/decode pair,
// as a real network would. The simulation normally hands Go values across
// directly; enabling a codec proves the whole protocol is wire-encodable
// and surfaces any state that silently depended on sharing memory.
// Encode/decode failures are returned to the caller as errors (they are
// programming errors, not network failures).
func WithCodec(encode func(Message) ([]byte, error), decode func([]byte) (Message, error)) Option {
	return func(n *Network) {
		n.encode, n.decode = encode, decode
	}
}

// WithObs attaches an observability registry. The network adopts its
// traffic counters and per-endpoint served vector into the registry (they
// exist and count regardless, backing Stats and Load) and additionally
// times every completed call into its destination's EndpointCallNs cell and
// records a multicast fan-out-width histogram. Without this option the extra
// histograms cost nothing — Call performs no clock reads for them.
func WithObs(r *obs.Registry) Option {
	return func(n *Network) { n.obsReg = r }
}

// NewNetwork returns an empty network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		seed:        1,
		calls:       new(obs.Counter),
		failedCalls: new(obs.Counter),
		messages:    new(obs.Counter),
		served:      new(obs.CounterVec),
	}
	for _, o := range opts {
		o(n)
	}
	if n.obsReg != nil {
		n.obsReg.AdoptCounter("transport_calls_total", n.calls)
		n.obsReg.AdoptCounter("transport_calls_failed_total", n.failedCalls)
		n.obsReg.AdoptCounter("transport_messages_total", n.messages)
		n.obsReg.AdoptCounterVec("transport_endpoint_served_total", n.served)
		n.obsReg.AdoptCounter("transport_leg_spawn_total", &legWorkers.Spawned)
		n.obsReg.AdoptGauge("transport_leg_workers_parked", &legWorkers.Parked)
		n.callNs = n.obsReg.HistogramVec(EndpointCallNs)
		n.mcFanout = n.obsReg.Histogram("transport_multicast_fanout")
	}
	n.scratch.New = func() any { return new(mcScratch) }
	return n
}

// Register attaches a handler for node id. The node starts up. Registering
// an already-registered id replaces its handler (supporting node restarts
// with fresh state) while preserving the node's served counter and latency
// stream.
func (n *Network) Register(id nodeset.ID, h Handler) {
	if h == nil {
		panic("transport: nil handler")
	}
	if id < 0 {
		panic(fmt.Sprintf("transport: negative node ID %d", int(id)))
	}
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	old := n.reg.Load()
	if ep := old.get(id); ep != nil {
		ep.handler.Store(&h)
		ep.up.Store(true)
		return
	}
	size := int(id) + 1
	if old != nil && len(old.eps) > size {
		size = len(old.eps)
	}
	eps := make([]*endpoint, size)
	if old != nil {
		copy(eps, old.eps)
	}
	ep := &endpoint{id: id, served: n.served.At(int(id))}
	ep.handler.Store(&h)
	ep.up.Store(true)
	eps[id] = ep
	n.reg.Store(&registry{eps: eps})
}

// Crash marks a node down: all calls to or from it fail until Restart.
// Crashing an unknown or already-down node is a no-op.
func (n *Network) Crash(id nodeset.ID) {
	if ep := n.reg.Load().get(id); ep != nil {
		ep.up.Store(false)
	}
}

// Restart marks a node up again. Its handler state is whatever the handler
// closure holds; crash-amnesia versus stable storage is the handler's
// concern.
func (n *Network) Restart(id nodeset.ID) {
	if ep := n.reg.Load().get(id); ep != nil {
		ep.up.Store(true)
	}
}

// IsUp reports whether the node is registered and not crashed.
func (n *Network) IsUp(id nodeset.ID) bool {
	ep := n.reg.Load().get(id)
	return ep != nil && ep.up.Load()
}

// Partition splits the network into the given groups: nodes in different
// groups cannot communicate. Nodes not mentioned in any group form an
// implicit extra group. Overlapping groups are rejected.
func (n *Network) Partition(groups ...nodeset.Set) error {
	seen := nodeset.Set{}
	maxID := nodeset.ID(-1)
	for _, g := range groups {
		if seen.Intersects(g) {
			return fmt.Errorf("transport: overlapping partition groups at %v", seen.Intersect(g))
		}
		seen = seen.Union(g)
		if id, ok := g.Max(); ok && id > maxID {
			maxID = id
		}
	}
	table := make([]int32, int(maxID)+1)
	for gi, g := range groups {
		for _, id := range g.IDs() {
			table[id] = int32(gi) + 1
		}
	}
	n.writeMu.Lock()
	n.part.Store(&partitionTable{group: table})
	n.writeMu.Unlock()
	return nil
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.writeMu.Lock()
	n.part.Store(nil)
	n.writeMu.Unlock()
}

// reachable reports whether a and b are in the same partition group.
func (n *Network) reachable(a, b nodeset.ID) bool {
	p := n.part.Load()
	return p.of(a) == p.of(b)
}

// sleepLatency delays one message leg, drawing from ep's stream.
func (n *Network) sleepLatency(ctx context.Context, ep *endpoint) error {
	if n.latency == nil {
		return nil
	}
	ep.rngMu.Lock()
	if ep.rng == nil {
		ep.rng = rand.New(rand.NewSource(streamSeed(n.seed, ep.id)))
	}
	d := n.latency(ep.rng)
	ep.rngMu.Unlock()
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Call sends req from one node to another and waits for the reply. It
// returns ErrCallFailed when delivery is impossible (crashed endpoint,
// partition, unknown node); handler errors pass through unchanged. It lends
// the handler no Leg, whatever ctx has inherited: the handler may wait, and
// answers into storage of its own, for the caller to keep.
func (n *Network) Call(ctx context.Context, from, to nodeset.ID, req Message) (Message, error) {
	if legOf(ctx) != nil {
		ctx = &Leg{Context: ctx}
	}
	return n.timedCall(ctx, from, to, req)
}

// timedCall is call under the registry's clock and the trace hook.
func (n *Network) timedCall(ctx context.Context, from, to nodeset.ID, req Message) (Message, error) {
	if n.trace == nil && n.callNs == nil {
		return n.call(ctx, from, to, req)
	}
	start := time.Now()
	reply, err := n.call(ctx, from, to, req)
	n.timed(from, to, req, reply, err, time.Since(start))
	return reply, err
}

// timed records a call's time into its destination's cell, if it returned a
// reply, and hands it to the trace hook, unless it would have waited: such
// an attempt was no call. The cell is made by the first call that records
// into it, not at Register — a cell is 2.7 KB, and only the weighted
// strategy and /metrics read them; after that At finds it without a lock.
func (n *Network) timed(from, to nodeset.ID, req, reply Message, err error, elapsed time.Duration) {
	if err == nil {
		n.callNs.At(int(to)).RecordDuration(elapsed)
	}
	if n.trace != nil && !errors.Is(err, ErrWouldWait) {
		n.trace(TraceEvent{From: from, To: to, Request: req, Reply: reply, Err: err, Elapsed: elapsed})
	}
}

func (n *Network) call(ctx context.Context, from, to nodeset.ID, req Message) (Message, error) {
	reg := n.reg.Load()
	src, dst := reg.get(from), reg.get(to)
	if src == nil || dst == nil || !src.up.Load() || !dst.up.Load() || !n.reachable(from, to) ||
		n.sleepLatency(ctx, src) != nil ||
		!dst.up.Load() || !n.reachable(from, to) { // looked at again on "arrival"
		n.calls.Inc()
		return n.fail()
	}
	handler := *dst.handler.Load()
	if n.encode != nil {
		var err error
		if req, err = n.transcode(req); err != nil {
			return nil, fmt.Errorf("transport: request codec: %w", err)
		}
	}
	reply, err := handler(ctx, from, req)
	if errors.Is(err, ErrWouldWait) {
		return nil, err
	}
	n.calls.Inc()
	n.messages.Inc()
	dst.served.Inc()
	if err != nil {
		return nil, err
	}
	if n.encode != nil {
		if reply, err = n.transcode(reply); err != nil {
			return nil, fmt.Errorf("transport: reply codec: %w", err)
		}
	}
	return n.finishCall(ctx, src, dst, from, to, reply)
}

// SendAsync delivers req one-way to every target: replies are discarded
// and the caller never waits for one. Each delivered message counts once
// (there is no reply leg); crashed or partitioned targets drop the
// message, exactly as the request leg of a call would.
//
// A message leaves its sender's goroutine only to wait, here as in
// MulticastFunc. Without latency injection there is no transit time, so
// delivery runs inline — a handler call is the cheapest honest
// implementation, and a delivered message's effects are visible the moment
// the send returns (tests rely on it); the handler may wait, at the sender's
// cost. With latency configured the fan-out moves to a leg worker so the
// transit time stays off the sender's critical path, as a real one-way send.
// An inline fan-out's handlers share one Leg of pooled scratch; a delayed
// one outlives the send and gets a context of its own.
func (n *Network) SendAsync(ctx context.Context, from nodeset.ID, targets nodeset.Set, req Message) {
	if targets.Empty() {
		return
	}
	if n.latency != nil {
		legWorkers.Go(job{n: n, ctx: &detached{Leg{Context: ctx}}, from: from, oneWay: targets.IDs(), req: req})
		return
	}
	sc := n.scratch.Get().(*mcScratch)
	sendCtx := &sc.oneWay
	sendCtx.Lend(ctx)
	var buf [16]nodeset.ID
	for _, to := range targets.AppendIDs(buf[:0]) {
		n.deliverOneWay(sendCtx, from, to, req)
	}
	sendCtx.Context = nil
	n.scratch.Put(sc)
}

// detached carries a context's values past its cancellation and deadline, as
// context.WithoutCancel does: per the SendAsync contract only the values
// (trace tags) travel with a one-way send. It has its own type for the
// pointer receiver: WithoutCancel's context is a struct value that boxes
// itself anew on every Value call, an allocation per obs.TraceFrom. Its Leg
// hides the sender's.
type detached struct{ Leg }

func (*detached) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*detached) Done() <-chan struct{}       { return nil }
func (*detached) Err() error                  { return nil }

// deliverOneWay is one target's leg of SendAsync: the request journey of
// call, with no reply journey back.
func (n *Network) deliverOneWay(ctx context.Context, from, to nodeset.ID, req Message) {
	reg := n.reg.Load()
	src, dst := reg.get(from), reg.get(to)
	if src == nil || dst == nil || !src.up.Load() || !dst.up.Load() || !n.reachable(from, to) {
		return
	}
	if n.sleepLatency(context.Background(), src) != nil {
		return
	}
	if !dst.up.Load() || !n.reachable(from, to) {
		return
	}
	if n.encode != nil {
		var err error
		if req, err = n.transcode(req); err != nil {
			return
		}
	}
	n.messages.Inc()
	dst.served.Inc()
	handler := *dst.handler.Load()
	handler(ctx, from, req) //nolint:errcheck // one-way: outcome is discarded
}

func (n *Network) fail() (Message, error) {
	n.failedCalls.Inc()
	return nil, ErrCallFailed
}

// transcode round-trips a message through the configured codec.
func (n *Network) transcode(msg Message) (Message, error) {
	buf, err := n.encode(msg)
	if err != nil {
		return nil, err
	}
	return n.decode(buf)
}

// finishCall models the reply's journey back to the caller. The reply leg
// samples latency from the replying node's stream.
func (n *Network) finishCall(ctx context.Context, src, dst *endpoint, from, to nodeset.ID, reply Message) (Message, error) {
	if err := n.sleepLatency(ctx, dst); err != nil {
		return n.fail()
	}
	// The reply must travel back.
	if !src.up.Load() || !dst.up.Load() || !n.reachable(from, to) {
		return n.fail()
	}
	n.messages.Inc()
	return reply, nil
}

// Result is one node's outcome within a MulticastFunc round.
type Result struct {
	Reply Message
	Err   error
}

// mcScratch is the pooled working set of one multicast fan-out: the target
// list, one Leg and one result per target, and the WaitGroup joining the
// calls — or an inline one-way fan-out's Leg. Pooling it keeps the
// steady-state fan-out free of allocations.
type mcScratch struct {
	ids     []nodeset.ID
	legs    []Leg
	results []Result
	wg      sync.WaitGroup
	oneWay  detached
}

// maxParkedLegs bounds the idle leg workers the process keeps. It is
// several times the legs the benchmark's two clients or loadgen's default
// workers have in flight, so the steady state never starts a goroutine,
// and small enough that what a burst leaves behind (a parked worker is a
// goroutine and the few KB of stack its handlers grew) is not a leak.
const maxParkedLegs = 128

// legWorkers run the waiting legs of every multicast and every delayed
// one-way fan-out on every Network of the process: a Network has no Close to
// stop workers of its own, and tests and benchmarks build networks by the
// hundred.
var legWorkers = NewWorkers(maxParkedLegs, job.run)

// job is one unit of fan-out handed to a worker: one target's call of a
// multicast, under its Leg (out and wg set), or a one-way fan-out (oneWay).
type job struct {
	n      *Network
	ctx    context.Context
	from   nodeset.ID
	to     nodeset.ID
	req    Message
	out    *Result
	wg     *sync.WaitGroup
	oneWay []nodeset.ID
}

func (j job) run(*Leg) {
	if j.oneWay != nil {
		for _, to := range j.oneWay {
			j.n.deliverOneWay(j.ctx, j.from, to, j.req)
		}
		return
	}
	reply, err := j.n.timedCall(j.ctx, j.from, j.to, j.req)
	*j.out = Result{Reply: reply, Err: err}
	j.wg.Done()
}

// MulticastFunc calls every target, waits for all of them, and then invokes
// fn once per target (in the targets' ID order) on the caller's goroutine.
// It allocates nothing: every target's handler runs under a Leg of pooled
// scratch and answers into its slot. fn must not retain the reply beyond the
// callback unless it copies it.
//
// A leg leaves the caller's goroutine only to wait. Without latency each
// handler is called in ID order where the round was sent, under NoWait; a
// leg that answers ErrWouldWait goes to a leg worker, where it may wait, and
// the round goes on with the rest. With latency every leg has its transit
// time to wait for and goes to a worker. Either way a leg parked in a
// replica's lock queue holds up neither the rest of its round nor anybody
// else's; a handler that blocks under NoWait without saying so holds up its
// round, as a one-way delivery to it does. Empty target sets return
// immediately.
//
// The inline legs are timed as a chain: the reading of the clock that ends
// one leg starts the next and is lent to its handler (Now). The chain starts
// at the round's clock when ctx carries one (Timed) and leaves its last
// reading there; a round nothing times reads no clock.
func (n *Network) MulticastFunc(ctx context.Context, from nodeset.ID, targets nodeset.Set, req Message, fn func(to nodeset.ID, r Result)) {
	if targets.Empty() {
		return
	}
	n.mcFanout.Record(uint64(targets.Len()))
	sc := n.scratch.Get().(*mcScratch)
	sc.ids = targets.AppendIDs(sc.ids[:0])
	if len(sc.legs) < len(sc.ids) {
		sc.legs = append(sc.legs, make([]Leg, len(sc.ids)-len(sc.legs))...)
		sc.results = make([]Result, len(sc.legs))
	}
	clock, waited := TimedOf(ctx), false
	timing := clock != nil || n.callNs != nil || n.trace != nil
	var now time.Time // zero when nothing times the round: a handler that asks reads the clock
	switch {
	case clock != nil:
		now = clock.Now
	case timing:
		now = time.Now()
	}
	for i, id := range sc.ids {
		l := &sc.legs[i]
		l.Context, l.now, l.noWait = ctx, now, n.latency == nil
		if l.noWait {
			reply, err := n.call(l, from, id, req)
			began := now
			if timing {
				now = time.Now()
			}
			if !errors.Is(err, ErrWouldWait) {
				if timing {
					n.timed(from, id, req, reply, err, now.Sub(began))
				}
				sc.results[i] = Result{Reply: reply, Err: err}
				continue
			}
		}
		// A leg that waits reads the clock when it is served.
		l.now, l.noWait, waited = time.Time{}, false, true
		sc.wg.Add(1)
		legWorkers.Go(job{n: n, ctx: l, from: from, to: id, req: req, out: &sc.results[i], wg: &sc.wg})
	}
	sc.wg.Wait()
	if clock != nil {
		if waited {
			now = time.Now()
		}
		clock.Now = now
	}
	for i, id := range sc.ids {
		fn(id, sc.results[i])
	}
	for i := range sc.ids {
		sc.results[i], sc.legs[i].Context = Result{}, nil // drop references before pooling
	}
	n.scratch.Put(sc)
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Calls:       int64(n.calls.Load()),
		FailedCalls: int64(n.failedCalls.Load()),
		Messages:    int64(n.messages.Load()),
	}
}

// ResetStats zeroes the traffic counters and per-node load. When a registry
// is attached these are the registry's cells, so the metrics view resets
// with the experiment view.
func (n *Network) ResetStats() {
	n.calls.Reset()
	n.failedCalls.Reset()
	n.messages.Reset()
	n.served.Reset()
}

// Load returns a copy of the per-node served-request counters, the basis of
// the load-sharing experiments. Nodes that served no requests are omitted.
// It is a view over the same cells exposed to the obs registry as
// transport_endpoint_served_total.
func (n *Network) Load() map[nodeset.ID]int64 {
	reg := n.reg.Load()
	out := make(map[nodeset.ID]int64)
	if reg == nil {
		return out
	}
	for _, ep := range reg.eps {
		if ep == nil {
			continue
		}
		if v := ep.served.Load(); v != 0 {
			out[ep.id] = int64(v)
		}
	}
	return out
}

// Served returns the served-request counter for one node without
// allocating: the lock-free single-node view of Load. Unregistered nodes
// read zero.
func (n *Network) Served(id nodeset.ID) uint64 {
	if ep := n.reg.Load().get(id); ep != nil {
		return ep.served.Load()
	}
	return 0
}

// Nodes returns the set of registered node IDs.
func (n *Network) Nodes() nodeset.Set {
	var s nodeset.Set
	reg := n.reg.Load()
	if reg == nil {
		return s
	}
	for _, ep := range reg.eps {
		if ep != nil {
			s.Add(ep.id)
		}
	}
	return s
}

// UpNodes returns the set of registered, non-crashed node IDs.
func (n *Network) UpNodes() nodeset.Set {
	var s nodeset.Set
	reg := n.reg.Load()
	if reg == nil {
		return s
	}
	for _, ep := range reg.eps {
		if ep != nil && ep.up.Load() {
			s.Add(ep.id)
		}
	}
	return s
}
