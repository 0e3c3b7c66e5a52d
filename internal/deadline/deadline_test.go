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
