package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
)

// CheckResult reports the outcome of one epoch-checking run.
type CheckResult struct {
	// Changed is true when a new epoch was installed.
	Changed bool
	// Epoch and EpochNum describe the epoch after the run (installed or
	// confirmed current).
	Epoch    nodeset.Set
	EpochNum uint64
	// Stale lists the members of the new epoch that were marked stale.
	Stale nodeset.Set
}

// CheckEpoch runs one epoch check from this coordinator. It returns
// ErrUnavailable when the reachable replicas do not include a write quorum
// of the newest epoch, in which case the epoch (and the data item) stays
// unavailable until more replicas return.
func (c *Coordinator) CheckEpoch(ctx context.Context) (CheckResult, error) {
	r := c.operation(ctx, obs.OpEpochChange, 0)
	// Round 0: lock-free poll of all replicas.
	began := r.clock.Now
	states := c.pollAll(ctx, r)
	r.a.Phase(obs.PhasePoll, began, r.clock.Now, len(states), 0)
	return c.checkEpoch(ctx, r, states)
}

// pulse is the periodic epoch checking the paper prescribes ("we want a
// steady (albeit infrequent) pulse of epoch checking operations to avoid
// the accumulation of failures", Section 2): one goroutine running a check
// per tick, each bounded by the interval, until halted. A failed check is
// retried at the next tick. Cluster and ElectedCluster differ only in the
// check they hand it.
type pulse struct {
	mu   sync.Mutex
	stop func() // cancels the running pulse and waits for it; nil if none
}

// start runs check every interval; it does nothing while a pulse runs.
func (p *pulse) start(interval time.Duration, check func(context.Context)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	p.stop = func() { cancel(); <-done }
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				tick, release := context.WithTimeout(ctx, interval)
				check(tick)
				release()
			}
		}
	}()
}

// halt stops the pulse and waits for its goroutine; a no-op when none runs.
func (p *pulse) halt() {
	p.mu.Lock()
	stop := p.stop
	p.stop = nil
	p.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// checkEpochFromPoll continues an epoch check from already-collected poll
// responses. Grouped epoch management (Group.CheckEpochs) shares one poll
// round across all items on the same node set and feeds each item's slice
// of it here. Each item's check still gets its own flight trace; the poll
// phase's duration is unknown here (it ran before this trace began) and is
// recorded as zero.
func (c *Coordinator) checkEpochFromPoll(ctx context.Context, states []response) (CheckResult, error) {
	r := c.operation(ctx, obs.OpEpochChange, 0)
	r.a.Phase(obs.PhasePoll, r.clock.Now, r.clock.Now, len(states), 0)
	return c.checkEpoch(ctx, r, states)
}

// checkEpoch runs the check from the poll's responses and ends the operation
// r began.
func (c *Coordinator) checkEpoch(ctx context.Context, r *rounds, states []response) (CheckResult, error) {
	c.metrics.epochChecks.Inc()
	res, err := c.checkEpochTraced(ctx, r, states)
	c.done(r, epochOutcome(res, err), res.EpochNum)
	if res.Changed {
		c.metrics.epochChanges.Inc()
	}
	return res, err
}

// epochOutcome maps an epoch check's result to its trace outcome: an
// installed epoch is OutcomeOK, a confirmed-current epoch OutcomeNoChange.
func epochOutcome(res CheckResult, err error) obs.Outcome {
	if err == nil && !res.Changed {
		return obs.OutcomeNoChange
	}
	return outcomeOf(err)
}

// checkEpochTraced is the epoch-checking algorithm proper, recording its
// lifecycle into r's (possibly nil) flight trace. states may be r's, which
// its first round overwrites.
func (c *Coordinator) checkEpochTraced(ctx context.Context, r *rounds, states []response) (CheckResult, error) {
	cl := classify(states)
	if cl.responders.Empty() {
		return CheckResult{}, fmt.Errorf("%w: no replica reachable", ErrUnavailable)
	}
	if cl.responders.Equal(cl.maxEpoch.Epoch) && uniformEpoch(states, cl.maxEpoch.EpochNum) && cl.recovering.Empty() {
		// No failures detected (every member of the newest epoch answered),
		// no repairs (nobody outside it answered), and no amnesiac replicas
		// awaiting readmission: nothing to do.
		return CheckResult{Epoch: cl.maxEpoch.Epoch, EpochNum: cl.maxEpoch.EpochNum}, nil
	}

	// A change is needed. Lock the candidate members — the responders plus
	// any recovering replicas, which join the new epoch as stale members —
	// and re-validate against their fresh states. Replicas that answered
	// the poll but could not grant the lock in time are merely busy (e.g.
	// with an in-flight propagation), not failed — retry the locking phase
	// a few times before concluding the quorum is gone.
	op := c.item.NextOp()
	var locked []response
	var lcl classification
	for attempt := 0; ; attempt++ {
		res := c.lockRound(ctx, r, cl.responders.Union(cl.recovering), replica.Envelope{Item: c.item.Name(), Msg: replica.LockRequest{Op: op, Mode: replica.LockWrite}})
		if !res.refusedBy.Empty() {
			// An older read, write or check is ahead at some member: like
			// them, release and lock again under a fresh OpID.
			c.unlock(ctx, r, op, res.held()) // a LockRequest stages nothing
			if !c.retryRefused(ctx, r, attempt, errRefused) {
				return CheckResult{}, errRefused
			}
			op = c.item.NextOp()
			continue
		}
		locked = res.responses
		lcl = classify(locked)
		if !lcl.responders.Empty() && c.layout(lcl.maxEpoch.EpochNum, lcl.maxEpoch.Epoch).IsWriteQuorum(lcl.responders) {
			break
		}
		c.abortAll(ctx, r, op, lcl.responders.Union(lcl.recovering))
		if res.busy.Empty() || attempt >= 2 || ctx.Err() != nil {
			return CheckResult{}, fmt.Errorf("%w: reachable replicas hold no write quorum of epoch %d",
				ErrUnavailable, lcl.maxEpoch.EpochNum)
		}
	}
	release := lcl.responders.Union(lcl.recovering)
	newEpoch := lcl.responders.Union(lcl.recovering)
	if newEpoch.Equal(lcl.maxEpoch.Epoch) && uniformEpoch(locked, lcl.maxEpoch.EpochNum) && lcl.recovering.Empty() {
		// The anomaly healed while we were locking.
		c.abortAll(ctx, r, op, release)
		return CheckResult{Epoch: lcl.maxEpoch.Epoch, EpochNum: lcl.maxEpoch.EpochNum}, nil
	}
	if !lcl.currentReachable() {
		// No replica provably current among the candidates ("if
		// max-version >= max-dversion" in the paper's CheckEpoch): leave
		// the epoch alone; a later check may reach the current replica.
		c.abortAll(ctx, r, op, release)
		return CheckResult{}, fmt.Errorf("%w: no current replica among reachable ones", ErrUnavailable)
	}

	newNum := lcl.maxEpoch.EpochNum + 1
	staleSet := newEpoch.Diff(lcl.good)
	if !staleSet.Empty() {
		// The new epoch admits these members as stale with the current
		// maximum version as their desired version — the predicted stale
		// set of this epoch change.
		r.a.StaleMark(staleSet, lcl.maxVersion)
	}
	began := r.clock.Now
	prepared := c.ackRound(ctx, r, newEpoch, replica.PrepareEpoch{
		Op: op, Epoch: newEpoch, EpochNum: newNum, Good: lcl.good, MaxVersion: lcl.maxVersion,
	})
	r.a.Phase(obs.PhasePrepare, began, r.clock.Now, prepared.Len(), 0)
	if !prepared.Equal(newEpoch) {
		c.abortAll(ctx, r, op, release)
		return CheckResult{}, fmt.Errorf("%w: epoch prepare incomplete (%d/%d)", ErrConflict, prepared.Len(), newEpoch.Len())
	}
	began = r.clock.Now
	committed := c.commitAll(ctx, r, op, newEpoch)
	r.a.Phase(obs.PhaseCommit, began, r.clock.Now, committed.Len(), 0)
	// Keyed by the new epoch's number: this both checks the commit round and
	// warms the cache for the first operations on the epoch just installed.
	if !c.layout(newNum, newEpoch).IsWriteQuorum(committed) {
		// Not enough members adopted the epoch for it to be recognized;
		// stragglers hold pinned locks until the decision reaches them.
		return CheckResult{}, fmt.Errorf("%w: epoch commit incomplete", ErrUnavailable)
	}
	r.a.EpochInstall(newEpoch, newNum)
	return CheckResult{Changed: true, Epoch: newEpoch, EpochNum: newNum, Stale: staleSet}, nil
}

// commitRetries is how many times the epoch install re-sends its commit to a
// member whose acknowledgement did not arrive.
const commitRetries = 3

// commitAll is the epoch install's commit: it records the decision at the
// coordinator's replica (the write-ahead step of the termination protocol)
// and then delivers it as an acknowledged round, retrying stragglers,
// because the new epoch is recognized only once a write quorum of it has
// adopted it. It returns the members that acknowledged; the rest resolve
// through the decision log. A write commits one-way instead (commitPhase).
func (c *Coordinator) commitAll(ctx context.Context, r *rounds, op replica.OpID, targets nodeset.Set) nodeset.Set {
	c.item.RecordCommit(op, 0)
	committed := nodeset.Set{}
	remaining := targets.Clone()
	for attempt := 0; attempt <= commitRetries && !remaining.Empty(); attempt++ {
		acked := c.ackRound(ctx, r, remaining, replica.Commit{Op: op})
		committed = committed.Union(acked)
		remaining = remaining.Diff(acked)
	}
	return committed
}

// pollAll sends a lock-free StateQuery to every replica holder. Targets
// whose calls fail are retried once: a state query is pure, and the
// dominant failure mode after a node restart is a stale pipelined
// connection — the failed first attempt evicts it, so the retry dials
// fresh and distinguishes a dead node from a dead connection. Without
// the retry an epoch check run right after a crash-restart would exclude
// the restarted (possibly recovering) replica from the new epoch instead
// of readmitting it, costing an extra epoch change later. The responses
// are r's (see send).
func (c *Coordinator) pollAll(ctx context.Context, r *rounds) []response {
	query := replica.Envelope{Item: c.item.Name(), Msg: replica.StateQuery{}}
	c.send(ctx, r, c.all, query)
	if failed := c.all.Diff(r.got.held()).Union(r.got.busy); !failed.Empty() && ctx.Err() == nil {
		c.resend(ctx, r, failed, query)
	}
	return r.got.responses
}

// uniformEpoch reports whether every response carries the given epoch
// number.
func uniformEpoch(responses []response, num uint64) bool {
	for _, r := range responses {
		if r.state.EpochNum != num {
			return false
		}
	}
	return true
}
