package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"coterie/internal/obs"
	"coterie/internal/replica"
)

// Group commit (Options.GroupCommit): a per-coordinator write combiner.
// Under same-item contention the single-write protocol serializes on the
// replicas' transactional locks — K concurrent writers pay K full
// lock/prepare/commit cycles end to end. The combiner instead queues
// concurrent Write calls and lets one of them, the leader, drain the
// queue as a batch: one lock round on one quorum, one PrepareBatch
// carrying the ordered update list and the version range
// [first, first+K-1], one commit. Each caller still gets its own assigned
// version and outcome, so the client-visible API and the per-op
// observability breakdown are unchanged; the replicas apply the batch as
// K consecutive versions, preserving per-version log granularity for
// propagation.
//
// A batch whose lock round a replica refused (an older operation is ahead
// there) releases what it was granted and runs again as a batch, like any
// refused operation. Anything else the batch fast path cannot handle with
// nothing applied — quorum assembly failure, an epoch redirect, a
// degenerate epoch — aborts the locks and returns every writer to the
// single-write flow (which owns the heavy procedure and redirect
// handling), each under its own context. Only a commit that was
// dispatched but not fully acknowledged surfaces an error directly, the
// same uncertain outcome the single-write path reports.

// errBatchRetry signals that a batch aborted cleanly: no replica applied
// anything, the locks were released, and each writer should retry through
// the single-write flow. Never returned to callers.
var errBatchRetry = errors.New("core: batch aborted, retry writes individually")

// pendingWrite is one queued writer. done is a 1-buffered channel created
// once per pooled instance; the leader sends exactly one completion on it
// per submission.
type pendingWrite struct {
	u       replica.Update
	version uint64
	err     error
	done    chan struct{}
}

var pendingPool = sync.Pool{New: func() any { return &pendingWrite{done: make(chan struct{}, 1)} }}

// combiner is the per-coordinator write queue. The first writer to find
// the queue idle becomes the leader and drains it; writers arriving while
// a batch is in flight are absorbed by the leader's next cut, so the
// batch size self-tunes toward the arrival rate per protocol round.
type combiner struct {
	c *Coordinator
	// exec runs one cut; c.executeBatch in production, a stub in the
	// allocation-gate tests (the protocol rounds allocate, the combiner
	// machinery itself must not).
	exec     func(batch []*pendingWrite)
	maxBatch int
	maxQueue int

	mu       sync.Mutex
	queue    []*pendingWrite
	draining bool

	// Leader-only scratch, guarded by the draining flag rather than mu:
	// the current cut and the assembled update list. Reused across
	// flushes, so the steady-state drain path allocates nothing (see
	// combiner_test.go's AllocsPerRun gate).
	batch   []*pendingWrite
	updates []replica.Update
}

func newCombiner(c *Coordinator, o GroupCommitOptions) *combiner {
	b := &combiner{c: c, maxBatch: o.MaxBatch, maxQueue: o.MaxQueue}
	b.exec = c.executeBatch
	return b
}

// submit queues u for group commit and waits for its outcome. handled is
// false when the combiner did not produce a result — the queue was full,
// or the batch aborted with nothing applied — and the caller must run the
// single-write flow itself, under its own context. The wait is bounded:
// every protocol round the leader runs is CallTimeout-limited.
func (b *combiner) submit(ctx context.Context, u replica.Update) (version uint64, err error, handled bool) {
	pw := pendingPool.Get().(*pendingWrite)
	pw.u, pw.version, pw.err = u, 0, nil
	b.mu.Lock()
	if len(b.queue) >= b.maxQueue {
		b.mu.Unlock()
		pendingPool.Put(pw)
		return 0, nil, false
	}
	b.queue = append(b.queue, pw)
	lead := !b.draining
	if lead {
		b.draining = true
	}
	b.mu.Unlock()
	if lead {
		b.drain()
	}
	<-pw.done
	version, err = pw.version, pw.err
	pw.u, pw.err = replica.Update{}, nil
	pendingPool.Put(pw)
	if err == errBatchRetry {
		return 0, nil, false
	}
	return version, err, true
}

// drain cuts up to maxBatch writers at a time and executes each cut as
// one batch until the queue is empty. The handoff is race-free because
// both the leader's final emptiness check and a new writer's leader
// election happen under mu: a writer that appended before the check is
// drained here, one that appended after finds draining false and leads
// its own drain.
func (b *combiner) drain() {
	for {
		b.mu.Lock()
		n := len(b.queue)
		if n == 0 {
			b.draining = false
			b.mu.Unlock()
			return
		}
		if n > b.maxBatch {
			n = b.maxBatch
		}
		b.batch = append(b.batch[:0], b.queue[:n]...)
		m := copy(b.queue, b.queue[n:])
		clear(b.queue[m:])
		b.queue = b.queue[:m]
		b.mu.Unlock()
		b.exec(b.batch)
		clear(b.batch) // drop refs: completed writers return to the pool
		b.batch = b.batch[:0]
	}
}

// executeBatch runs one cut. A cut of one takes the ordinary single-write
// path — there is nothing to merge, and that path owns the heavy
// fallback. Larger cuts run the batch protocol under a background
// context: the leader is an arbitrary member of the cut, and its caller's
// cancellation must not poison the other writers' outcomes.
func (c *Coordinator) executeBatch(batch []*pendingWrite) {
	ctx := context.Background()
	if len(batch) == 1 {
		pw := batch[0]
		pw.version, pw.err = c.writeOne(ctx, pw.u)
		pw.done <- struct{}{}
		return
	}
	op := c.item.NextOp()
	a := c.obsReg.Flight().Begin(obs.OpWrite, c.item.Self(), uint64(op.Seq), c.item.Name())
	var first uint64
	var err error
	// A refused batch runs again as a batch: scattered to the single-write
	// flow its writers would contend with each other for the same replicas.
	for attempt := 0; ; attempt++ {
		first, err = c.writeBatch(ctx, a, op, batch)
		if !c.retryRefused(ctx, attempt, err) {
			break
		}
		op = c.item.NextOp()
	}
	switch {
	case err == errBatchRetry:
		a.End(obs.OutcomeConflict, 0)
		c.metrics.batchFallback.Inc()
		for _, pw := range batch {
			pw.err = errBatchRetry
			pw.done <- struct{}{}
		}
		return
	case err == nil:
		a.End(obs.OutcomeOK, first+uint64(len(batch))-1)
		for i, pw := range batch {
			pw.version = first + uint64(i)
			pw.done <- struct{}{}
		}
	default:
		a.End(outcomeOf(err), 0)
		for _, pw := range batch {
			pw.err = err
			pw.done <- struct{}{}
		}
	}
}

// writeBatch is the batch analogue of write+executeWrite, without a heavy
// fallback of its own: one lock round on one strategy-picked quorum, one
// prepare round carrying all K updates, one stale-marking round desiring
// the batch's last version, one commit. Every exit before the commit
// phase aborts the locks and returns errBatchRetry; after commit
// dispatch, an incomplete acknowledgement is the usual uncertain
// ErrUnavailable for the whole batch (the updates commit or abort
// atomically — participants stage all K versions under one operation).
func (c *Coordinator) writeBatch(ctx context.Context, a *obs.ActiveOp, op replica.OpID, batch []*pendingWrite) (uint64, error) {
	local := c.item.State()
	lay := c.layout(local.EpochNum, local.Epoch)
	quorum, ok := c.pickWriteQuorum(lay, local.Epoch, op)
	if !ok {
		return 0, errBatchRetry
	}
	c.noteQuorum(a, quorumWrite, lay, quorum)
	res := c.lockRound(ctx, a, quorum, replica.LockRequest{Op: op, Mode: replica.LockWrite})
	if !res.refusedBy.Empty() {
		c.unlock(ctx, op, res.held()) // a LockRequest stages nothing
		return 0, errRefused
	}
	cl := classify(res.responses)
	c.noteRedirect(a, local.EpochNum, cl)
	if cl.maxEpoch.EpochNum != local.EpochNum || cl.responders.Empty() ||
		!lay.IsWriteQuorum(cl.responders) || !cl.currentReachable() {
		// Epoch redirects included: the single-write flow re-resolves the
		// layout per responder epoch; the batch path only runs the common,
		// settled-epoch case.
		c.abortAll(ctx, op, res.held())
		return 0, errBatchRetry
	}

	k := uint64(len(batch))
	first := cl.maxVersion + 1
	last := first + k - 1
	a.Batch(len(batch), first, last)
	c.metrics.batchFlush.Inc()
	c.metrics.batchSize.Record(k)

	updates := c.combiner.updates[:0]
	for _, pw := range batch {
		updates = append(updates, pw.u)
	}
	c.combiner.updates = updates

	began := a.Elapsed()
	prepared := c.ackRound(ctx, cl.good, replica.PrepareBatch{
		Op: op, Updates: updates, FirstVersion: first, StaleSet: cl.stale, GoodSet: cl.good,
	})
	a.Phase(obs.PhasePrepare, began, prepared.Len(), 0)
	if !prepared.Equal(cl.good) {
		c.abortAll(ctx, op, res.held())
		return 0, errBatchRetry
	}
	if !cl.stale.Empty() {
		a.StaleMark(cl.stale, last)
		preparedStale := c.ackRound(ctx, cl.stale, replica.PrepareStale{
			Op: op, Desired: last, GoodSet: cl.good,
		})
		if !preparedStale.Equal(cl.stale) {
			c.abortAll(ctx, op, res.held())
			return 0, errBatchRetry
		}
	}
	began = a.Elapsed()
	committed := c.commitAll(ctx, op, last, cl.responders)
	a.Phase(obs.PhaseCommit, began, committed.Len(), 0)
	c.unlock(ctx, op, res.held().Diff(cl.responders)) // granted, but took no part
	if !cl.good.Subset(committed) {
		return 0, fmt.Errorf("%w: commit not acknowledged by all good replicas", ErrUnavailable)
	}
	// Write-through of the whole run in one message (see ApplyDirect.More).
	// updates is the combiner's scratch, rewritten by the next cut;
	// pushThrough copies the tail if it sends anything.
	c.pushThrough(ctx, local.Epoch, cl.responders, replica.ApplyDirect{
		Op: op, Update: updates[0], More: updates[1:], NewVersion: first, GoodSet: cl.good,
	})
	return first, nil
}
