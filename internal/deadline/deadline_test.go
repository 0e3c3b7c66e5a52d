package deadline

import (
	"context"
	"testing"
	"time"
)

var sink context.Context

// TestBoundAllocatesOnlyTheContext holds Bound to one allocation when its
// caller defers the release function, as every quorum round does. It is the
// gate on Bound staying small enough to inline: out of line, the release
// function is a second object on the heap per round.
func TestBoundAllocatesOnlyTheContext(t *testing.T) {
	parent := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		ctx, release := Bound(parent, time.Second)
		defer release()
		sink = ctx
	})
	if allocs != 1 {
		t.Errorf("Bound with a deferred release allocates %.1f objects, want 1", allocs)
	}
}

// TestBoundDeadlineAndRelease: the deadline is the earlier of the parent's
// and now+timeout, Done closes at it, and release disarms the timer.
func TestBoundDeadlineAndRelease(t *testing.T) {
	parent, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	ctx, release := Bound(parent, 20*time.Millisecond)
	if d, ok := ctx.Deadline(); !ok || time.Until(d) > 20*time.Millisecond {
		t.Fatalf("deadline %v, want within the 20ms timeout", d)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done did not close at the deadline")
	}
	if ctx.Err() != context.DeadlineExceeded {
		t.Errorf("Err = %v after the deadline", ctx.Err())
	}
	release()

	near, cancelNear := context.WithDeadline(context.Background(), time.Now().Add(time.Millisecond))
	defer cancelNear()
	ctx, release = Bound(near, time.Hour)
	defer release()
	if d, _ := ctx.Deadline(); time.Until(d) > time.Millisecond {
		t.Errorf("deadline %v ignores the parent's earlier one", d)
	}
}

// TestRebound: a Ctx nobody parked on is re-armed in place from the reading
// it is given, the parent's earlier deadline still winning, and forgets the
// expiry it saw; one whose Done was asked for is released and replaced, so
// its timer can fire into nobody's next round.
func TestRebound(t *testing.T) {
	t0 := time.Now().Add(-time.Hour)
	c, release := Bound(context.Background(), time.Millisecond)
	defer release()
	if c.Err() == nil {
		time.Sleep(2 * time.Millisecond)
	}
	if c.Err() == nil {
		t.Fatal("the first deadline never passed")
	}
	if got := c.Rebound(context.Background(), t0, time.Minute); got != c {
		t.Fatal("a Ctx nobody parked on was replaced")
	}
	if d, _ := c.Deadline(); !d.Equal(t0.Add(time.Minute)) {
		t.Errorf("re-armed deadline %v, want the given reading plus the timeout", d)
	}
	if c.Err() != context.DeadlineExceeded {
		t.Errorf("a deadline an hour old reads %v", c.Err())
	}
	parent, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	if c.Rebound(parent, time.Now(), time.Minute); c.Err() != nil {
		t.Errorf("re-armed Ctx still reports %v", c.Err())
	}
	if d, _ := c.Deadline(); time.Until(d) > time.Minute {
		t.Errorf("deadline %v is past the timeout", d)
	}
	done := c.Done()
	fresh := c.Rebound(parent, time.Now(), 30*time.Millisecond)
	if fresh == c {
		t.Fatal("a Ctx whose Done was asked for was re-armed")
	}
	select {
	case <-done:
		t.Fatal("the replaced Ctx's timer fired")
	case <-fresh.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("the fresh Ctx's deadline never closed Done")
	}
}
