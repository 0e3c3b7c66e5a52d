package core

import (
	"context"
	"errors"
	"time"

	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// rounds is what one operation's rounds reuse, so that a round allocates
// nothing: the legs' context, a deadline re-armed each round beneath the
// operation's clock, the two fused requests boxed once into their envelopes,
// the bound collector and what it gathered. A coordinator keeps one between
// operations (Coordinator.spare); an operation that finds it taken builds
// its own. The clock reads once when the operation begins; after that each
// round starts, and bounds its deadline and phase, at the reading the last
// one ended at (tick reads it again after a wait between rounds).
type rounds struct {
	a     *obs.ActiveOp
	clock transport.Timed
	dl    *deadline.Ctx

	lock    replica.LockPrepare
	snap    replica.ReadSnap
	lockReq transport.Message // Envelope{item, &lock}
	snapReq transport.Message // Envelope{item, &snap}
	collect func(nodeset.ID, transport.Result)

	got lockResult
}

// add sorts one answer into r.got. A reply is the answering replica's slot's
// until the round is over: only what the operation goes on with is copied
// out, and of a read's values only the one it returns.
func (r *rounds) add(id nodeset.ID, res transport.Result) {
	g := &r.got
	if res.Err != nil {
		if !errors.Is(res.Err, transport.ErrCallFailed) {
			g.busy.Add(id)
		}
		return
	}
	switch m := res.Reply.(type) {
	case *replica.StateReply:
		g.responses = append(g.responses, response{node: id, state: *m})
	case *replica.LockPrepareReply:
		g.responses = append(g.responses, response{node: id, state: m.State})
		if m.Prepared {
			g.prepared.Add(id)
		}
	case *replica.SnapReply:
		g.responses = append(g.responses, response{node: id, state: m.State})
		if st := &m.State; !st.Recovering && !st.Stale && (g.value == nil || st.Version > g.valueVer) {
			g.value, g.valueVer = append([]byte(nil), m.Value...), st.Version
		}
	case *replica.LockRefused:
		g.refusedBy.Add(id)
		g.lostTo = m.By
	case replica.Ack:
		if m.OK {
			g.acked.Add(id)
		}
	}
}

// operation begins an operation on c: the rounds it reuses, its first
// reading of the clock, and its trace.
func (c *Coordinator) operation(ctx context.Context, kind obs.OpKind, seq uint64) *rounds {
	r := c.spare.Swap(nil)
	if r == nil {
		r = &rounds{dl: new(deadline.Ctx)}
		r.lockReq = replica.Envelope{Item: c.item.Name(), Msg: &r.lock}
		r.snapReq = replica.Envelope{Item: c.item.Name(), Msg: &r.snap}
		r.collect = r.add
	}
	r.clock.Now = time.Now()
	r.a = c.obsReg.Flight().Begin(kind, c.item.Self(), seq, c.item.Name(), r.clock.Now)
	r.a.Trace(obs.TraceFrom(ctx))
	return r
}

// done ends the operation's trace and gives its rounds back to c.
func (c *Coordinator) done(r *rounds, o obs.Outcome, version uint64) {
	r.a.End(o, version, r.tick())
	r.a, r.clock.Context, r.lock.Update = nil, nil, replica.Update{}
	c.spare.Store(r)
}

// tick reads the clock, for the next round to start from.
func (r *rounds) tick() time.Time {
	r.clock.Now = time.Now()
	return r.clock.Now
}

// send runs one round: msg to every target, bounded by CallTimeout from the
// round's start. What it gathered is r.got, which it returns: the responses
// and the value in it are the rounds', overwritten by the next round.
func (c *Coordinator) send(ctx context.Context, r *rounds, targets nodeset.Set, msg transport.Message) lockResult {
	r.got = lockResult{responses: r.got.responses[:0]}
	c.resend(ctx, r, targets, msg)
	return r.got
}

// resend is send whose answers join those r.got holds.
func (c *Coordinator) resend(ctx context.Context, r *rounds, targets nodeset.Set, msg transport.Message) {
	r.dl = r.dl.Rebound(ctx, r.clock.Now, c.opts.CallTimeout)
	r.clock.Context = r.dl
	c.net.MulticastFunc(&r.clock, c.item.Self(), targets, msg, r.collect)
}
