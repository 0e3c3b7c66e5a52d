package main

import (
	"cmp"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// The traced run records spans from outside the program: around the root
// call (Coordinator.Read/Write or capi Client.Read/Write), around every
// call the root makes into the transport.Net it was handed, and around
// every replica handler those calls reach. Depth is the layer:
//
//	0  root       core (sim workloads) or capi (tcp_sharded)
//	1  net call   transport (sim) or everything behind the client socket (tcp)
//	2  handler    replica (sim only; the tcp daemons run behind the socket)
const (
	depthRoot = iota
	depthNet
	depthHandler
	numDepths
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created; Parent indexes the operation's own span list (-1 for
// the root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	depth  int
}

// opTrace collects the spans of one root call. Handlers of one multicast
// run on their own goroutines, hence the mutex.
type opTrace struct {
	mu    sync.Mutex
	spans []span
}

func (o *opTrace) open(name string, parent, depth int, now int64) int {
	o.mu.Lock()
	o.spans = append(o.spans, span{Name: name, Start: now, Parent: parent, depth: depth})
	i := len(o.spans) - 1
	o.mu.Unlock()
	return i
}

func (o *opTrace) close(i int, now int64) {
	o.mu.Lock()
	o.spans[i].End = now
	o.mu.Unlock()
}

// spanRef is what travels in the context: the operation and the span that
// any span opened below it should name as parent.
type spanRef struct {
	op  *opTrace
	idx int
}

type spanKey struct{}

func refFrom(ctx context.Context) *spanRef {
	ref, _ := ctx.Value(spanKey{}).(*spanRef)
	return ref
}

// tracer hands out operation traces and keeps the first keepOps of them
// verbatim for the trace file; every operation's layer times go into the
// caller's traceAcc, so the reported means cover the whole traced run.
type tracer struct {
	epoch  time.Time
	nextOp atomic.Uint64

	mu   sync.Mutex
	kept []span
}

// keepOps bounds the trace file: a 5 s traced run records millions of
// spans, and the first few thousand operations are enough to inspect.
const keepOps = 2000

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// traceAcc sums one client's traced operations, reads in [0] and writes
// in [1]. layer[d] is the wall time during which depth d was the deepest
// layer running, so the three add up to root.
type traceAcc struct {
	ops      [2]int
	root     [2]time.Duration
	layer    [2][numDepths]time.Duration
	handlers [2]int
}

func (a *traceAcc) add(b *traceAcc) {
	for k := 0; k < 2; k++ {
		a.ops[k] += b.ops[k]
		a.root[k] += b.root[k]
		a.handlers[k] += b.handlers[k]
		for d := range a.layer[k] {
			a.layer[k][d] += b.layer[k][d]
		}
	}
}

// root runs fn as a traced root call named name and folds its spans into
// acc. With a nil tracer, or a nil acc (set-up and read-back traffic), it
// just runs fn.
func (t *tracer) root(ctx context.Context, name string, isRead bool, acc *traceAcc, fn func(context.Context) error) error {
	if t == nil || acc == nil {
		return fn(ctx)
	}
	op := &opTrace{spans: make([]span, 0, 16)}
	i := op.open(name, -1, depthRoot, t.now())
	err := fn(context.WithValue(ctx, spanKey{}, &spanRef{op: op, idx: i}))
	op.close(i, t.now())

	k := 1
	if isRead {
		k = 0
	}
	times := layerTimes(op.spans)
	acc.ops[k]++
	acc.root[k] += time.Duration(op.spans[0].End - op.spans[0].Start)
	for d, v := range times {
		acc.layer[k][d] += v
	}
	for _, s := range op.spans {
		if s.depth == depthHandler {
			acc.handlers[k]++
		}
	}
	if id := t.nextOp.Add(1); id <= keepOps {
		t.mu.Lock()
		for _, s := range op.spans {
			s.Op = id
			t.kept = append(t.kept, s)
		}
		t.mu.Unlock()
	}
	return err
}

// child times fn as a span below whatever span ctx carries. Contexts
// without a span (background propagation, set-up traffic) run fn untimed.
func (t *tracer) child(ctx context.Context, name string, depth int, fn func(context.Context)) {
	ref := refFrom(ctx)
	if ref == nil {
		fn(ctx)
		return
	}
	i := ref.op.open(name, ref.idx, depth, t.now())
	fn(context.WithValue(ctx, spanKey{}, &spanRef{op: ref.op, idx: i}))
	ref.op.close(i, t.now())
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.kept)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// layerTimes splits the root span's duration by deepest running layer.
// covered(d) is the length of the union of all spans at depth ≥ d, clipped
// to the root; a layer's self time is covered(d) − covered(d+1). Taking
// unions is what keeps parallel children (the handlers of one multicast)
// from being counted twice, and is why the result adds up to the root.
func layerTimes(spans []span) [numDepths]time.Duration {
	var out [numDepths]time.Duration
	if len(spans) == 0 {
		return out
	}
	root := spans[0]
	var covered [numDepths + 1]int64
	for d := 0; d < numDepths; d++ {
		covered[d] = unionLen(spans, d, root.Start, root.End)
	}
	for d := 0; d < numDepths; d++ {
		out[d] = time.Duration(covered[d] - covered[d+1])
	}
	return out
}

// unionLen is the total length of [lo,hi] covered by spans of depth ≥
// depth.
func unionLen(spans []span, depth int, lo, hi int64) int64 {
	type interval struct{ s, e int64 }
	var buf [24]interval // an operation has about 15 spans; no allocation
	ivs := buf[:0]
	for _, sp := range spans {
		if sp.depth < depth {
			continue
		}
		s, e := max(sp.Start, lo), min(sp.End, hi)
		if e > s {
			ivs = append(ivs, interval{s, e})
		}
	}
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.s, b.s) })
	total, end := int64(0), lo
	for _, v := range ivs {
		end = max(end, v.s)
		if v.e > end {
			total += v.e - end
			end = v.e
		}
	}
	return total
}

// asyncNet is what both networks of this repo are: request/reply plus
// one-way sends.
type asyncNet interface {
	transport.Net
	transport.AsyncSender
}

// tracedNet decorates the network handed to the layer under test. It is an
// AsyncSender like the network it wraps, so a coordinator's one-way
// commits stay one-way.
type tracedNet struct {
	inner asyncNet
	t     *tracer
	layer string // span name prefix: "transport" or "tcpnet"
}

func (n *tracedNet) Register(id nodeset.ID, h transport.Handler) {
	n.inner.Register(id, func(ctx context.Context, from nodeset.ID, req transport.Message) (reply transport.Message, err error) {
		n.t.child(ctx, handlerName(req), depthHandler, func(ctx context.Context) {
			reply, err = h(ctx, from, req)
		})
		return reply, err
	})
}

func (n *tracedNet) Call(ctx context.Context, from, to nodeset.ID, req transport.Message) (reply transport.Message, err error) {
	n.t.child(ctx, n.layer+".Call", depthNet, func(ctx context.Context) {
		reply, err = n.inner.Call(ctx, from, to, req)
	})
	return reply, err
}

func (n *tracedNet) MulticastFunc(ctx context.Context, from nodeset.ID, targets nodeset.Set, req transport.Message, fn func(nodeset.ID, transport.Result)) {
	n.t.child(ctx, n.layer+".MulticastFunc", depthNet, func(ctx context.Context) {
		n.inner.MulticastFunc(ctx, from, targets, req, fn)
	})
}

func (n *tracedNet) SendAsync(ctx context.Context, from nodeset.ID, targets nodeset.Set, req transport.Message) {
	n.t.child(ctx, n.layer+".SendAsync", depthNet, func(ctx context.Context) {
		n.inner.SendAsync(ctx, from, targets, req)
	})
}

func (n *tracedNet) Served(id nodeset.ID) uint64 { return n.inner.Served(id) }

var handlerNames sync.Map // reflect.Type → "replica.<Message>"

// handlerName names a handler span after the protocol message it serves.
func handlerName(req transport.Message) string {
	if env, ok := req.(replica.Envelope); ok {
		req = env.Msg
	}
	typ := reflect.TypeOf(req)
	if name, ok := handlerNames.Load(typ); ok {
		return name.(string)
	}
	name := "replica." + typ.Name()
	handlerNames.Store(typ, name)
	return name
}
