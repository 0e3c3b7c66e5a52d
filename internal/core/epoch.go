package core

import (
	"context"
	"fmt"

	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
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
	c.metrics.epochChecks.Inc()
	a := c.obsReg.Flight().Begin(obs.OpEpochChange, c.item.Self(), 0, c.item.Name())
	// Round 0: lock-free poll of all replicas.
	began := a.Elapsed()
	states := c.pollAll(ctx)
	a.Phase(obs.PhasePoll, began, len(states), 0)
	res, err := c.checkEpochTraced(ctx, a, states)
	a.End(epochOutcome(res, err), res.EpochNum)
	if res.Changed {
		c.metrics.epochChanges.Inc()
	}
	return res, err
}

// checkEpochFromPoll continues an epoch check from already-collected poll
// responses. Grouped epoch management (Group.CheckEpochs) shares one poll
// round across all items on the same node set and feeds each item's slice
// of it here. Each item's check still gets its own flight trace; the poll
// phase's duration is unknown here (it ran before this trace began) and is
// recorded as zero.
func (c *Coordinator) checkEpochFromPoll(ctx context.Context, states []response) (CheckResult, error) {
	c.metrics.epochChecks.Inc()
	a := c.obsReg.Flight().Begin(obs.OpEpochChange, c.item.Self(), 0, c.item.Name())
	a.Phase(obs.PhasePoll, 0, len(states), 0)
	res, err := c.checkEpochTraced(ctx, a, states)
	a.End(epochOutcome(res, err), res.EpochNum)
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
// lifecycle into a (possibly nil) flight trace.
func (c *Coordinator) checkEpochTraced(ctx context.Context, a *obs.ActiveOp, states []response) (CheckResult, error) {
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
		res := c.lockRound(ctx, a, cl.responders.Union(cl.recovering), replica.LockRequest{Op: op, Mode: replica.LockWrite})
		if !res.refusedBy.Empty() {
			// An older read, write or check is ahead at some member: like
			// them, release and lock again under a fresh OpID.
			c.unlock(ctx, op, res.held()) // a LockRequest stages nothing
			if !c.retryRefused(ctx, attempt, errRefused) {
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
		c.abortAll(ctx, op, lcl.responders.Union(lcl.recovering))
		if res.busy.Empty() || attempt >= 2 || ctx.Err() != nil {
			return CheckResult{}, fmt.Errorf("%w: reachable replicas hold no write quorum of epoch %d",
				ErrUnavailable, lcl.maxEpoch.EpochNum)
		}
	}
	release := lcl.responders.Union(lcl.recovering)
	newEpoch := lcl.responders.Union(lcl.recovering)
	if newEpoch.Equal(lcl.maxEpoch.Epoch) && uniformEpoch(locked, lcl.maxEpoch.EpochNum) && lcl.recovering.Empty() {
		// The anomaly healed while we were locking.
		c.abortAll(ctx, op, release)
		return CheckResult{Epoch: lcl.maxEpoch.Epoch, EpochNum: lcl.maxEpoch.EpochNum}, nil
	}
	if !lcl.currentReachable() {
		// No replica provably current among the candidates ("if
		// max-version >= max-dversion" in the paper's CheckEpoch): leave
		// the epoch alone; a later check may reach the current replica.
		c.abortAll(ctx, op, release)
		return CheckResult{}, fmt.Errorf("%w: no current replica among reachable ones", ErrUnavailable)
	}

	newNum := lcl.maxEpoch.EpochNum + 1
	staleSet := newEpoch.Diff(lcl.good)
	if !staleSet.Empty() {
		// The new epoch admits these members as stale with the current
		// maximum version as their desired version — the predicted stale
		// set of this epoch change.
		a.StaleMark(staleSet, lcl.maxVersion)
	}
	began := a.Elapsed()
	prepared := c.ackRound(ctx, newEpoch, replica.PrepareEpoch{
		Op: op, Epoch: newEpoch, EpochNum: newNum, Good: lcl.good, MaxVersion: lcl.maxVersion,
	})
	a.Phase(obs.PhasePrepare, began, prepared.Len(), 0)
	if !prepared.Equal(newEpoch) {
		c.abortAll(ctx, op, release)
		return CheckResult{}, fmt.Errorf("%w: epoch prepare incomplete (%d/%d)", ErrConflict, prepared.Len(), newEpoch.Len())
	}
	began = a.Elapsed()
	committed := c.commitAll(ctx, op, 0, newEpoch)
	a.Phase(obs.PhaseCommit, began, committed.Len(), 0)
	// Keyed by the new epoch's number: this both checks the commit round and
	// warms the cache for the first operations on the epoch just installed.
	if !c.layout(newNum, newEpoch).IsWriteQuorum(committed) {
		// Not enough members adopted the epoch for it to be recognized;
		// stragglers hold pinned locks until the decision reaches them.
		return CheckResult{}, fmt.Errorf("%w: epoch commit incomplete", ErrUnavailable)
	}
	a.EpochInstall(newEpoch, newNum)
	return CheckResult{Changed: true, Epoch: newEpoch, EpochNum: newNum, Stale: staleSet}, nil
}

// pollAll sends a lock-free StateQuery to every replica holder. Targets
// whose calls fail outright are retried once: a state query is pure, and
// the dominant failure mode after a node restart is a stale pipelined
// connection — the failed first attempt evicts it, so the retry dials
// fresh and distinguishes a dead node from a dead connection. Without
// the retry an epoch check run right after a crash-restart would exclude
// the restarted (possibly recovering) replica from the new epoch instead
// of readmitting it, costing an extra epoch change later.
func (c *Coordinator) pollAll(ctx context.Context) []response {
	out := make([]response, 0, c.all.Len())
	var failed nodeset.Set
	query := replica.Envelope{Item: c.item.Name(), Msg: replica.StateQuery{}}
	callCtx, cancel := deadline.Bound(ctx, c.opts.CallTimeout)
	c.net.MulticastFunc(callCtx, c.item.Self(), c.all, query,
		func(id nodeset.ID, r transport.Result) {
			if r.Err != nil {
				failed.Add(id)
				return
			}
			if st, ok := r.Reply.(replica.StateReply); ok {
				out = append(out, response{node: id, state: st})
			}
		})
	cancel()
	if !failed.Empty() && ctx.Err() == nil {
		retryCtx, retryCancel := deadline.Bound(ctx, c.opts.CallTimeout)
		c.net.MulticastFunc(retryCtx, c.item.Self(), failed, query,
			func(id nodeset.ID, r transport.Result) {
				if r.Err != nil {
					return
				}
				if st, ok := r.Reply.(replica.StateReply); ok {
					out = append(out, response{node: id, state: st})
				}
			})
		retryCancel()
	}
	return out
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
