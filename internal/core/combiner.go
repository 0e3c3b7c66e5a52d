package core

import (
	"context"
	"errors"
	"sync"

	"coterie/internal/obs"
	"coterie/internal/replica"
)

// Group commit: every coordinator's write combiner. Under same-item
// contention the single-write protocol serializes on the replicas'
// transactional locks — K concurrent writers pay K full lock/prepare/commit
// cycles end to end. The combiner instead lets one writer, the leader, run
// while the writers that arrive meanwhile queue, and has the leader drain
// the queue as batches: a write that carries a run. One lock round on one
// quorum, then the single write's own prepare and commit (executeWrite):
// one PrepareUpdate carrying the K updates, which produce the versions
// [first, first+K-1] and commit or abort together, stale marks desiring
// first+K-1, and a one-way commit. Each caller still gets its own assigned
// version and outcome, so the client-visible API and the per-op
// observability breakdown are unchanged; the replicas apply the batch as
// K consecutive versions, preserving per-version log granularity for
// propagation. A writer that finds no leader writes alone at once, as if
// there were no combiner: it takes no queue slot and waits on no channel.
//
// A batch whose lock round a replica refused (an older operation is ahead
// there) releases what it was granted and runs again as a batch, like any
// refused operation. Anything else the batch cannot handle — quorum
// assembly failure, an epoch redirect, a degenerate epoch, a refused
// prepare — aborts with nothing applied and returns every writer to the
// single-write flow (which owns the heavy procedure and redirect
// handling), each under its own context. Once prepared, a batch is
// committed: there is no uncertain outcome to report.
//
// Under Options.SafetyThreshold > 0 the combiner is not used: the Section
// 4.1 extension is defined per single update.

// errBatchRetry signals that a batch aborted cleanly: no replica applied
// anything, the locks were released, and each writer should retry through
// the single-write flow. Never returned to callers.
var errBatchRetry = errors.New("core: batch aborted, retry writes individually")

const (
	// maxBatch caps the writes merged into one protocol round.
	maxBatch = 32
	// maxQueue caps the writers waiting to be batched; beyond it writers
	// overflow to the single-write path instead of queueing.
	maxQueue = 4 * maxBatch
)

// pendingWrite is one queued writer: its update and the context it wrote
// under, whose trace, steer key and deadline a cut of one runs with. done
// is a 1-buffered channel created once per pooled instance; the leader
// sends exactly one completion on it per submission.
type pendingWrite struct {
	ctx     context.Context
	u       replica.Update
	version uint64
	err     error
	done    chan struct{}
}

var pendingPool = sync.Pool{New: func() any { return &pendingWrite{done: make(chan struct{}, 1)} }}

// wait blocks until the leader has run pw's cut, returns its outcome and
// gives pw back to the pool.
func (pw *pendingWrite) wait() (uint64, error) {
	<-pw.done
	version, err := pw.version, pw.err
	pw.ctx, pw.u, pw.err = nil, replica.Update{}, nil
	pendingPool.Put(pw)
	return version, err
}

// combiner is a coordinator's write queue, embedded in it by value. The
// first writer to find no leader becomes the leader; writers arriving while
// it writes are absorbed by its next cut, so the batch size self-tunes
// toward the arrival rate per protocol round.
type combiner struct {
	// maxBatch and maxQueue are the constants of the same names; a test
	// shrinks them to make the queue overflow.
	maxBatch int
	maxQueue int

	mu       sync.Mutex
	queue    []*pendingWrite
	draining bool // a leader holds the queue; false implies queue is empty

	// Leader-only scratch, guarded by the draining flag rather than mu:
	// the current cut and the assembled update list. Reused across
	// flushes, so the steady-state drain path allocates nothing (see
	// combiner_test.go's AllocsPerRun gate).
	batch   []*pendingWrite
	updates []replica.Update
}

// join is a writer's way in. With no leader it makes the caller the leader
// (lead is true), which writes alone and then drains the queue. Otherwise
// it queues u behind the leader and returns the pendingWrite to wait on, or
// nil when the queue is full and the caller must write alone.
func (b *combiner) join(ctx context.Context, u replica.Update) (pw *pendingWrite, lead bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.draining {
		b.draining = true
		return nil, true
	}
	if len(b.queue) >= b.maxQueue {
		return nil, false
	}
	pw = pendingPool.Get().(*pendingWrite)
	pw.ctx, pw.u, pw.version, pw.err = ctx, u, 0, nil
	b.queue = append(b.queue, pw)
	return pw, false
}

// next returns the leader's next cut, up to maxBatch queued writers, or nil
// with the lead given up once the queue is empty. The handoff is race-free
// because both this emptiness check and a writer's join happen under mu: a
// writer that queued before the check is in a cut, one that joins after it
// finds no leader and writes alone.
func (b *combiner) next() []*pendingWrite {
	clear(b.batch) // drop refs: completed writers return to the pool
	b.mu.Lock()
	defer b.mu.Unlock()
	n := min(len(b.queue), b.maxBatch)
	if n == 0 {
		b.draining = false
		b.batch = b.batch[:0]
		return nil
	}
	b.batch = append(b.batch[:0], b.queue[:n]...)
	m := copy(b.queue, b.queue[n:])
	clear(b.queue[m:])
	b.queue = b.queue[:m]
	return b.batch
}

// drain runs the leader's cuts until the queue is empty.
func (c *Coordinator) drain() {
	for batch := c.combiner.next(); batch != nil; batch = c.combiner.next() {
		c.executeBatch(batch)
	}
}

// executeBatch runs one cut. A cut of one takes the ordinary single-write
// path under its writer's own context — there is nothing to merge, and that
// path owns the heavy fallback. Larger cuts run the batch protocol under a
// background context: the leader is an arbitrary member of the cut, and its
// caller's cancellation must not poison the other writers' outcomes.
func (c *Coordinator) executeBatch(batch []*pendingWrite) {
	if len(batch) == 1 {
		pw := batch[0]
		pw.version, pw.err = c.writeOne(pw.ctx, pw.u)
		pw.done <- struct{}{}
		return
	}
	ctx := context.Background()
	op := c.item.NextOp()
	r := c.operation(ctx, obs.OpWrite, op.Seq)
	var first uint64
	var err error
	// A refused batch runs again as a batch: scattered to the single-write
	// flow its writers would contend with each other for the same replicas.
	for attempt := 0; ; attempt++ {
		first, err = c.writeBatch(ctx, r, op, batch)
		if !c.retryRefused(ctx, r, attempt, err) {
			break
		}
		op = c.item.NextOp()
	}
	switch {
	case err == errBatchRetry:
		c.done(r, obs.OutcomeConflict, 0)
		c.metrics.batchFallback.Inc()
		for _, pw := range batch {
			pw.err = errBatchRetry
			pw.done <- struct{}{}
		}
		return
	case err == nil:
		c.done(r, obs.OutcomeOK, first+uint64(len(batch))-1)
		for i, pw := range batch {
			pw.version = first + uint64(i)
			pw.done <- struct{}{}
		}
	default:
		c.done(r, outcomeOf(err), 0)
		for _, pw := range batch {
			pw.err = err
			pw.done <- struct{}{}
		}
	}
}

// writeBatch is the batch analogue of write, without a speculative prepare
// or a heavy fallback of its own: one lock round on one strategy-picked
// quorum, then executeWrite and afterWrite with the batch's updates as one
// run. Every exit before the commit aborts the locks and returns
// errBatchRetry. Its lock round is a plain LockRequest, so nothing it stages
// is speculative, and the first version its decision records is never
// version-gated (replica.DecisionQuery).
func (c *Coordinator) writeBatch(ctx context.Context, r *rounds, op replica.OpID, batch []*pendingWrite) (uint64, error) {
	local := c.item.State()
	lay := c.layout(local.EpochNum, local.Epoch)
	quorum, ok := c.pickWriteQuorum(lay, local.Epoch, op)
	if !ok {
		return 0, errBatchRetry
	}
	c.noteQuorum(r.a, quorumWrite, lay, quorum)
	res := c.lockRound(ctx, r, quorum, replica.Envelope{Item: c.item.Name(), Msg: replica.LockRequest{Op: op, Mode: replica.LockWrite}})
	held := res.held()
	if !res.refusedBy.Empty() {
		c.unlock(ctx, r, op, held) // a LockRequest stages nothing
		return 0, errRefused
	}
	cl := classify(res.responses)
	c.noteRedirect(r.a, local.EpochNum, cl)
	if cl.maxEpoch.EpochNum != local.EpochNum || cl.responders.Empty() ||
		!lay.IsWriteQuorum(cl.responders) || !cl.currentReachable() {
		// Epoch redirects included: the single-write flow re-resolves the
		// layout per responder epoch; the batch path only runs the common,
		// settled-epoch case.
		c.abortAll(ctx, r, op, held)
		return 0, errBatchRetry
	}

	k := uint64(len(batch))
	r.a.Batch(len(batch), cl.maxVersion+1, cl.maxVersion+k)
	c.metrics.batchFlush.Inc()
	c.metrics.batchSize.Record(k)

	updates := c.combiner.updates[:0]
	for _, pw := range batch {
		updates = append(updates, pw.u)
	}
	c.combiner.updates = updates

	first, err := c.executeWrite(ctx, r, op, updates[0], updates[1:], cl)
	c.unlock(ctx, r, op, held.Diff(cl.responders)) // granted, but took no part
	if err != nil {
		return 0, errBatchRetry
	}
	// updates is the combiner's scratch, rewritten by the next cut;
	// pushThrough copies the tail if it sends anything.
	c.afterWrite(ctx, r, op, updates[0], updates[1:], first, cl)
	return first, nil
}
