package transport

import (
	"context"
	"time"
)

// A Leg is the context a handler call runs under, lending the handler a
// reply slot (SlotOf), the reading of the clock the leg began at (Now) and
// the no-wait marker (NoWait). Senders keep their Legs from call to call —
// a multicast's scratch one per target, a server worker its own.
type Leg struct {
	context.Context
	now    time.Time
	noWait bool
	slot   any
}

type legKey struct{}

// Value answers for the Leg, and hides the clock of its round (Timed) from
// the rounds its handler sends.
func (l *Leg) Value(key any) any {
	switch key {
	case legKey{}:
		return l
	case timedKey{}:
		return nil
	}
	return l.Context.Value(key)
}

// Lend readies l for one call under parent, with its slot but no reading.
func (l *Leg) Lend(parent context.Context) context.Context {
	l.Context, l.now, l.noWait = parent, time.Time{}, false
	return l
}

func legOf(ctx context.Context) *Leg {
	l, _ := ctx.Value(legKey{}).(*Leg)
	return l
}

// NoWait reports whether a handler given ctx runs on its sender's goroutine,
// the rest of the round behind it, and must not wait for another operation.
func NoWait(ctx context.Context) bool {
	l := legOf(ctx)
	return l != nil && l.noWait
}

// Now returns the reading of the clock the handler's leg began at. A call
// lent none takes one when first asked, which the rest of the call shares.
func Now(ctx context.Context) time.Time {
	l := legOf(ctx)
	if l == nil {
		return time.Now()
	}
	if l.now.IsZero() {
		l.now = time.Now()
	}
	return l.now
}

// SlotOf returns the reply slot lent with ctx, or nil (see Handler).
func SlotOf(ctx context.Context) *any {
	if l := legOf(ctx); l != nil {
		return &l.slot
	}
	return nil
}

// Timed is the context of a round that keeps its clock: MulticastFunc starts
// the first leg at Now and leaves there the reading the last leg ended at.
type Timed struct {
	context.Context
	Now time.Time
}

type timedKey struct{}

// Value answers for the Timed.
func (t *Timed) Value(key any) any {
	if key == (timedKey{}) {
		return t
	}
	return t.Context.Value(key)
}

// TimedOf returns the clock of the round ctx is sent under, or nil.
func TimedOf(ctx context.Context) *Timed {
	t, _ := ctx.Value(timedKey{}).(*Timed)
	return t
}
