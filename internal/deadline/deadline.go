// Package deadline provides a deadline-only context whose cancellation
// machinery is lazy: nothing is allocated beyond the context itself, and
// no timer is armed, until some consumer actually parks on Done().
//
// The protocol hot path creates one bounded context per quorum round and
// per client operation. context.WithTimeout is built for the general
// case and pays for it up front every time: a timer allocation, a
// timer-heap arm/disarm, registration in the parent's children map (a
// lock every in-flight operation contends on) — and, when the parent is
// a non-standard context implementation, a watcher goroutine per derived
// context. Profiles of the networked data plane showed that machinery as
// a double-digit share of both coordinator and client allocations, while
// the fast path — a round that completes well inside its deadline
// without anyone blocking — never touches the Done channel at all.
//
// Ctx inverts the cost: Deadline() is a field read, Err() checks the
// clock, and Done() materializes the channel and arms the timer only on
// first call. Handlers and transports that never park never pay, and an
// owner that sends round after round re-arms one Ctx (Rebound).
//
// Semantic narrowing versus context.WithTimeout, deliberate and safe for
// the protocol stack's use: cancellation of the parent context does not
// asynchronously close an already-armed Done channel. A goroutine parked
// on Done() wakes at the deadline rather than instantly at parent
// cancellation (Err still reports the parent's error as soon as it is
// polled). The stack tolerates this because parking on a Ctx is always
// deadline-bounded — CallTimeout for quorum rounds, the operation
// timeout for client calls — and because the events that must interrupt
// a parked caller promptly (a connection dying under an in-flight call)
// deliver their own wakeups through the transport, not through context
// cancellation.
package deadline

import (
	"context"
	"sync"
	"time"
)

// Ctx is a deadline-bounded context over a parent. See the package
// comment for the laziness contract and the narrowing versus
// context.WithTimeout.
type Ctx struct {
	base     context.Context
	deadline time.Time

	mu    sync.Mutex
	done  chan struct{}
	timer *time.Timer
	err   error
}

var _ context.Context = (*Ctx)(nil)

// Bound returns a context whose deadline is the earlier of the parent's
// deadline and now+timeout, plus a release function that must be called
// when the bounded work finishes (the analogue of WithTimeout's cancel:
// it disarms the lazily armed timer; it does not close Done).
//
// Bound and At are small enough to inline, so a caller that only calls or
// defers the release function keeps it on its stack: a bounded round costs
// one allocation, the context. That is why Bound builds the context itself
// instead of calling At and keeps the clock arithmetic in withinNow: either
// would put it over the inliner's budget
// (TestBoundAllocatesOnlyTheContext).
func Bound(parent context.Context, timeout time.Duration) (*Ctx, func()) {
	c := &Ctx{base: parent, deadline: withinNow(parent, timeout)}
	return c, c.release
}

func withinNow(parent context.Context, timeout time.Duration) time.Time {
	return within(parent, time.Now(), timeout)
}

// within returns now+timeout or the parent's deadline, whichever is first.
func within(parent context.Context, now time.Time, timeout time.Duration) time.Time {
	d := now.Add(timeout)
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		return pd
	}
	return d
}

// At is Bound with an absolute deadline.
func At(parent context.Context, d time.Time) (*Ctx, func()) {
	c := &Ctx{base: parent, deadline: d}
	return c, c.release
}

// Rebound returns c re-armed as Bound(parent, timeout) would have made it
// at now, a reading of the clock its owner took, for an owner that keeps
// one Ctx from round to round. A Ctx whose Done was asked for is released
// instead, and a fresh one returned: its timer may yet fire into it, and
// whoever parked may still hold its channel.
func (c *Ctx) Rebound(parent context.Context, now time.Time, timeout time.Duration) *Ctx {
	c.mu.Lock()
	if c.done != nil {
		c.mu.Unlock()
		c.release()
		return &Ctx{base: parent, deadline: within(parent, now, timeout)}
	}
	c.base, c.deadline, c.err = parent, within(parent, now, timeout), nil
	c.mu.Unlock()
	return c
}

func (c *Ctx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *Ctx) Value(key any) any { return c.base.Value(key) }

func (c *Ctx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

func (c *Ctx) errLocked() error {
	if c.err == nil {
		if berr := c.base.Err(); berr != nil {
			c.err = berr
		} else if !time.Now().Before(c.deadline) {
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

// Done lazily materializes the cancellation channel and arms the
// deadline timer. Callers that never block never call this, and so never
// allocate a channel or touch the timer heap.
func (c *Ctx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.errLocked() != nil {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), c.expire)
		}
	}
	return c.done
}

func (c *Ctx) expire() {
	c.mu.Lock()
	if c.err == nil {
		c.err = context.DeadlineExceeded
		close(c.done)
	}
	c.mu.Unlock()
}

// release disarms the timer once the bounded work has finished — the
// counterpart of context.WithTimeout's cancel, minus the children-map
// bookkeeping. Safe to call multiple times.
func (c *Ctx) release() {
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.mu.Unlock()
}
