package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Coordinator executes read and write operations on one data item on
// behalf of a client, following the paper's Section 4 algorithms. A
// coordinator is co-located with a replica of the item (the paper's "node
// that initiated the operation"); its cached epoch list seeds quorum
// selection, and responses carrying later epochs redirect it.
//
// A Coordinator is safe for concurrent use.
type Coordinator struct {
	item *replica.Item
	net  transport.Net
	all  nodeset.Set // all nodes holding a replica of the item
	opts Options
	// layouts caches the compiled quorum layout of the current epoch so the
	// hot-path quorum checks run allocation-free (see coterie.Layout). The
	// cache invalidates itself whenever a response carries a newer epoch.
	layouts *coterie.Cache
	// obsReg and metrics are the observability attachments: counters are
	// the registry's one coordinator bundle, and the flight recorder is
	// re-read from the registry per operation (an atomic load) so attaching
	// one mid-run takes effect. Both are nil-safe when observability is
	// disabled.
	obsReg  *obs.Registry
	metrics *coordMetrics
	// strat drives StrategyOptimized: the process-shared engine from
	// Options.Engine; nil under StrategyHint. When it is nil or has no valid
	// snapshot (an epoch not solved yet) picks fall through to the hint path.
	strat *StrategyEngine
	// combiner is the group-commit write queue (combiner.go), unused under
	// Options.SafetyThreshold > 0.
	combiner combiner
	// spare is the rounds the last operation gave back (see rounds).
	spare atomic.Pointer[rounds]
}

// NewCoordinator builds a coordinator around the local replica `item`.
// all is the full replica set of the item.
func NewCoordinator(item *replica.Item, net transport.Net, all nodeset.Set, opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		item:    item,
		net:     net,
		all:     all.Clone(),
		opts:    opts,
		layouts: coterie.NewCache(opts.Rule),
		obsReg:  opts.Obs,
		metrics: sharedCoordMetrics(opts.Obs),
	}
	if opts.Strategy.Weighted() {
		c.strat = opts.Engine
	}
	c.combiner.maxBatch, c.combiner.maxQueue = maxBatch, maxQueue
	return c
}

// layout returns the compiled quorum layout of the given epoch, served from
// the coordinator's epoch-keyed cache.
func (c *Coordinator) layout(epochNum uint64, epoch nodeset.Set) *coterie.Layout {
	return c.layouts.For(epochNum, epoch)
}

// layoutAt returns the layout for the epoch carried by st, reusing cur —
// the layout already in hand from the quorum-selection phase — when the
// responses stayed in the same epoch. The common, failure-free operation
// then touches the cache once, not once per phase.
func (c *Coordinator) layoutAt(cur *coterie.Layout, curNum uint64, st replica.StateReply) *coterie.Layout {
	if cur != nil && curNum == st.EpochNum && cur.Epoch().Equal(st.Epoch) {
		return cur
	}
	return c.layouts.For(st.EpochNum, st.Epoch)
}

// Item returns the co-located replica.
func (c *Coordinator) Item() *replica.Item { return c.item }

// hint derives the quorum-function argument from the operation: primarily
// the coordinator's name (the paper's quorum function takes the node name
// so different coordinators draw different quorums) plus the sequence
// number so one coordinator also rotates across its own operations. The
// two are mixed through splitmix64 so quorum selection is uniform even
// when layouts reduce the hint modulo a small candidate count — a plain
// linear combination aliases badly (e.g. coordinators 0..k hitting the
// same quorum whenever 131 shares a factor with the candidate count),
// concentrating load on a few replicas.
func hint(op replica.OpID) int {
	x := uint64(op.Coordinator)<<32 ^ uint64(op.Seq)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	// Shift keeps the result non-negative on 64-bit ints.
	return int(x >> 1)
}

// pickWriteQuorum selects a write quorum from the layout's candidates per
// the configured strategy: a draw from the solved distribution under
// StrategyOptimized, the hint rotation otherwise.
func (c *Coordinator) pickWriteQuorum(lay *coterie.Layout, avail nodeset.Set, op replica.OpID) (nodeset.Set, bool) {
	if c.strat != nil {
		// The weighted strategy samples the solved distribution directly — no
		// self-preference probe, because reshaping picks toward self would
		// re-concentrate exactly the load the solver spread out.
		if q, ok := c.strat.pickWrite(lay, avail, hint(op)); ok {
			return q, true
		}
	}
	return preferSelf(c.item.Self(), lay.WriteQuorum, avail, hint(op))
}

// selfProbe bounds how many adjacent hint rotations preferSelf examines
// looking for a quorum that contains the coordinator's own replica.
const selfProbe = 3

// preferSelf draws a quorum for the given hint, probing a few adjacent
// rotations for one containing self. The coordinator's own member of
// every round is served inline by the transport — no frame, no syscall,
// no round-trip — so among equally valid quorums the self-containing one
// costs one fewer remote call per phase and lets reads fetch the value
// locally. Load sharing survives: the hint is already randomized per
// operation, so the *other* members of the chosen quorum still rotate,
// and every node applies the same preference to its own operations. When
// no nearby rotation contains self (self not a replica, or its quorums
// unavailable), the hint's own quorum is used unchanged.
func preferSelf(self nodeset.ID, pick func(nodeset.Set, int) (nodeset.Set, bool), avail nodeset.Set, h int) (nodeset.Set, bool) {
	q, ok := pick(avail, h)
	if !ok || q.Contains(self) {
		return q, ok
	}
	for d := 1; d <= selfProbe; d++ {
		if alt, altOK := pick(avail, h+d); altOK && alt.Contains(self) {
			return alt, true
		}
	}
	return q, ok
}

// pickReadQuorum is pickWriteQuorum's read analogue. It takes the hint
// value directly (rather than deriving it from the op) so the fast-read
// redraw can re-roll the selection with a remixed hint.
func (c *Coordinator) pickReadQuorum(lay *coterie.Layout, avail nodeset.Set, h int) (nodeset.Set, bool) {
	if c.strat != nil {
		if q, ok := c.strat.pickRead(lay, avail, h); ok {
			return q, true
		}
	}
	return preferSelf(c.item.Self(), lay.ReadQuorum, avail, h)
}

// remix re-scrambles a hint for a quorum redraw: the same splitmix64
// finalizer as hint(), so the second draw is decorrelated from the first
// under every strategy (rotation index, alias-table stream position).
func remix(h int) int {
	x := uint64(h) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x >> 1)
}

// response pairs a replica's state with its node ID.
type response struct {
	node  nodeset.ID
	state replica.StateReply
}

// lockResult is what a round collected (rounds.add).
type lockResult struct {
	responses []response  // members that answered with their state
	prepared  nodeset.Set // LockPrepare only: members that staged the update
	// busy members answered but could not grant in time (the context ended
	// in their queue) — distinct from members whose calls failed outright
	// (crashes, partitions).
	busy nodeset.Set
	// refusedBy members refused at once because an older operation is
	// ahead there (replica.LockRefused); lostTo is one such operation.
	refusedBy nodeset.Set
	lostTo    replica.OpID
	acked     nodeset.Set // members that acknowledged OK
	// value is a ReadSnap round's: a copy of the value of the first member,
	// in ID order, that is good at the highest version, valueVer.
	value    []byte
	valueVer uint64
}

// held returns the members that may hold the round's lock: the ones that
// granted it, and the busy ones, whose grant may have crossed the
// cancellation.
func (r lockResult) held() nodeset.Set {
	held := r.busy.Clone()
	for _, resp := range r.responses {
		held.Add(resp.node)
	}
	return held
}

// lockRound sends msg — a LockRequest, or r.lockReq, the write path's fused
// LockPrepare, which predicts that every target is current at
// newVersion−1 with the quorum itself as the good set — and records the
// round on the operation's trace. Its responses are the rounds' (see send).
func (c *Coordinator) lockRound(ctx context.Context, r *rounds, targets nodeset.Set, msg transport.Message) lockResult {
	began := r.clock.Now
	res := c.send(ctx, r, targets, msg)
	r.a.Phase(obs.PhaseLock, began, r.clock.Now, len(res.responses), res.busy.Len())
	if !res.busy.Empty() {
		r.a.LockBusy(res.busy)
	}
	if !res.refusedBy.Empty() {
		r.a.Refused(res.refusedBy, uint64(res.lostTo.Coordinator), res.lostTo.Seq)
	}
	return res
}

// errRefused reports a lock round some member refused (refusedBy is not
// empty). The caller has applied nothing, releases the round's grants
// one-way and returns it; it must not go on to the heavy procedure —
// locking every replica is the largest possible overlap with the operation
// it lost to — but run the round again under a fresh OpID (retryRefused).
// Callers see it, as an ErrConflict, once lockAttempts rounds were refused.
var errRefused = fmt.Errorf("%w: lock rounds refused by older operations", ErrConflict)

// lockAttempts bounds the lock rounds of one operation. Each attempt draws
// a fresh OpID, hence a fresh rank in the replicas' conflict order and a
// fresh quorum: against k operations contending for the same replicas it
// survives with probability about 1/(k+1), whoever coordinates it.
const lockAttempts = 8

// retryRefused reports whether an operation that ended with err should run
// again under a fresh OpID. A refusal means an older operation is in its
// own round right now, so the retry first yields the processor to it, and
// from the third attempt on a few tens of microseconds as well.
func (c *Coordinator) retryRefused(ctx context.Context, r *rounds, attempt int, err error) bool {
	if err != errRefused || attempt+1 >= lockAttempts || ctx.Err() != nil {
		return false
	}
	c.metrics.lockRetries.Inc()
	if attempt < 2 {
		runtime.Gosched()
	} else {
		time.Sleep(time.Duration(10+rand.Intn(40)) * time.Microsecond)
	}
	r.tick()
	return true
}

// snapRound is the read path's fused phase 1: a ReadSnap round whose
// replies carry each replica's state and value as one atomic snapshot,
// with the replica lock already released.
func (c *Coordinator) snapRound(ctx context.Context, r *rounds, op replica.OpID, targets nodeset.Set) lockResult {
	r.snap = replica.ReadSnap{Op: op}
	return c.send(ctx, r, targets, r.snapReq)
}

// classify analyzes a response set per the paper's write algorithm:
// the maximum-epoch response, the responder set, the maximum version among
// non-stale responses, the maximum desired version among stale responses,
// and the good set (non-stale responders at the maximum version).
type classification struct {
	maxEpoch   replica.StateReply
	responders nodeset.Set
	maxVersion uint64
	maxDesired uint64
	hasGood    bool
	good       nodeset.Set
	stale      nodeset.Set
	// recovering replicas answered but lost their stable state; they are
	// excluded from every quorum computation (they can no longer witness
	// past operations) until an epoch change readmits them.
	recovering nodeset.Set
	// bestGoodList is the recorded good list from the freshest participant,
	// used by the safety-threshold extension.
	bestGoodList nodeset.Set
	bestGoodVer  uint64
}

func classify(responses []response) classification {
	var cl classification
	for _, r := range responses {
		if r.state.Recovering {
			cl.recovering.Add(r.node)
			continue
		}
		cl.responders.Add(r.node)
		if r.state.EpochNum >= cl.maxEpoch.EpochNum {
			cl.maxEpoch = r.state
		}
		if r.state.Stale {
			if r.state.Desired > cl.maxDesired {
				cl.maxDesired = r.state.Desired
			}
		} else {
			if !cl.hasGood || r.state.Version > cl.maxVersion {
				cl.maxVersion = r.state.Version
			}
			cl.hasGood = true
		}
		if r.state.GoodVer >= cl.bestGoodVer && !r.state.Good.Empty() {
			cl.bestGoodVer = r.state.GoodVer
			cl.bestGoodList = r.state.Good
		}
	}
	for _, r := range responses {
		if !r.state.Recovering && !r.state.Stale && r.state.Version == cl.maxVersion && cl.hasGood {
			cl.good.Add(r.node)
		}
	}
	cl.stale = cl.responders.Diff(cl.good)
	return cl
}

// currentReachable reports whether the classification proves a current
// replica was contacted: some good replica exists and no stale responder
// desires a higher version (paper, Section 4.1's max-dversion test).
func (cl classification) currentReachable() bool {
	return cl.hasGood && cl.maxVersion >= cl.maxDesired
}

// ack sends msg to every member of targets and reports the IDs that
// acknowledged OK.
func (c *Coordinator) ackRound(ctx context.Context, r *rounds, targets nodeset.Set, msg any) nodeset.Set {
	return c.send(ctx, r, targets, replica.Envelope{Item: c.item.Name(), Msg: msg}).acked
}

// abortAll releases every participant; failures are ignored (leases expire
// or the termination resolver learns the recorded abort). It waits for the
// round, which matters on the paths that go on to re-lock the same
// operation (heavy fallbacks, epoch-check retries): lock acquisition for
// an already-held OpID is idempotent, so an abort still in flight when the
// op re-locks would release the re-acquired lock out from under it.
func (c *Coordinator) abortAll(ctx context.Context, r *rounds, op replica.OpID, targets nodeset.Set) {
	if targets.Empty() {
		return
	}
	c.item.RecordDecision(op, false)
	c.ackRound(ctx, r, targets, replica.Abort{Op: op})
}

// releaseAll is abortAll for a finished operation — the op's ID will never
// be locked again, so the release round can leave the critical path.
func (c *Coordinator) releaseAll(ctx context.Context, r *rounds, op replica.OpID, targets nodeset.Set) {
	if targets.Empty() {
		return
	}
	c.item.RecordDecision(op, false)
	c.unlock(ctx, r, op, targets)
}

// unlock releases a finished operation's locks without logging a decision,
// which is all an operation that can have staged nothing (a read) needs:
// no participant will ever ask how it ended. The abort is fired and
// forgotten: no participant's answer can change the outcome, and dropping
// the wait removes a round-trip from every heavy read. A lost abort
// resolves through the lock lease and, for writes, the recorded decision.
func (c *Coordinator) unlock(ctx context.Context, r *rounds, op replica.OpID, targets nodeset.Set) {
	if targets.Empty() {
		return
	}
	c.fireAndForget(ctx, r, targets, replica.Abort{Op: op})
}

// fireAndForget delivers msg to every target without waiting for remote
// replies. The co-located member (if present) is served synchronously, in a
// round of one on this goroutine — callers rely on the local replica
// reflecting the decision by the time the operation returns — while remote
// members get the transport's one-way send. msg is a Commit or an Abort,
// which wait for nothing at a replica. It is boxed per call, not kept in r:
// a one-way send may still be reading it when r's next operation runs.
func (c *Coordinator) fireAndForget(ctx context.Context, r *rounds, targets nodeset.Set, msg any) {
	var env transport.Message = replica.Envelope{Item: c.item.Name(), Msg: msg}
	self := c.item.Self()
	if targets.Contains(self) {
		c.send(ctx, r, nodeset.New(self), env)
		targets = targets.Diff(nodeset.New(self))
	}
	if !targets.Empty() {
		c.net.SendAsync(ctx, self, targets, env)
	}
}

// Write performs a partial write on the replicated data item (paper,
// Section 4.1 and appendix). In the common, failure-free case it contacts
// only a write quorum drawn from its epoch list; otherwise it falls back to
// the paper's HeavyProcedure, polling all replicas. On success it returns
// the version number the write produced. A committed write is then sent
// one-way to the epoch members outside its quorum (push.go); a transport
// that delivers one-way sends in the background — the simulated network
// with injected latency — may still be reading u.Data after Write returns,
// so the caller must not reuse that buffer.
//
// Concurrent Write calls on this coordinator merge into batched protocol
// rounds (group commit, combiner.go); each caller still receives its own
// assigned version and outcome.
func (c *Coordinator) Write(ctx context.Context, u replica.Update) (uint64, error) {
	if err := u.Validate(); err != nil {
		return 0, err
	}
	c.metrics.writes.Inc()
	if c.opts.SafetyThreshold > 0 {
		return c.writeOne(ctx, u)
	}
	pw, lead := c.combiner.join(ctx, u)
	if lead {
		version, err := c.writeOne(ctx, u)
		c.drain()
		return version, err
	}
	if pw != nil {
		if version, err := pw.wait(); err != errBatchRetry {
			return version, err
		}
	}
	// Queue overflow or a cleanly-aborted batch: run the write alone.
	return c.writeOne(ctx, u)
}

// writeOne runs one write through the single-write protocol flow — the
// leader's own write, a cut of one, a write under SafetyThreshold, one that
// overflowed the queue, and each writer of a batch that aborted with
// nothing applied.
func (c *Coordinator) writeOne(ctx context.Context, u replica.Update) (version uint64, err error) {
	op := c.item.NextOp()
	r := c.operation(ctx, obs.OpWrite, op.Seq)
	for attempt := 0; ; attempt++ {
		version, err = c.write(ctx, r, op, u)
		if !c.retryRefused(ctx, r, attempt, err) {
			break
		}
		op = c.item.NextOp()
	}
	c.done(r, outcomeOf(err), version)
	return version, err
}

func (c *Coordinator) write(ctx context.Context, r *rounds, op replica.OpID, u replica.Update) (uint64, error) {
	local := c.item.State()

	lay := c.layout(local.EpochNum, local.Epoch)
	quorum, ok := c.pickWriteQuorum(lay, local.Epoch, op)
	if !ok {
		// The local epoch list admits no quorum at all (degenerate state);
		// go heavy immediately.
		return c.heavyWrite(ctx, r, op, u, nodeset.Set{})
	}
	c.noteQuorum(r.a, quorumWrite, lay, quorum)
	// The lock round carries the update speculatively (LockPrepare): if the
	// whole quorum turns out current at the predicted version, every member
	// has already staged and the write goes straight to commit — one round
	// trip instead of two. Any miss degrades to the classified prepare
	// below, which overwrites the speculative stagings it covers.
	specVersion := local.Version + 1
	r.lock = replica.LockPrepare{Op: op, Update: u, NewVersion: specVersion, GoodSet: quorum}
	res := c.lockRound(ctx, r, quorum, r.lockReq)
	held := res.held()
	if !res.refusedBy.Empty() {
		c.releaseAll(ctx, r, op, held)
		return 0, errRefused
	}
	cl := classify(res.responses)
	c.noteRedirect(r.a, local.EpochNum, cl)
	if !cl.responders.Empty() && c.layoutAt(lay, local.EpochNum, cl.maxEpoch).IsWriteQuorum(cl.responders) && cl.currentReachable() {
		if res.prepared.Equal(quorum) && cl.good.Equal(quorum) && cl.maxVersion+1 == specVersion {
			// Speculation hit: every quorum member answered, is current at
			// the predicted base version, and staged the update — exactly
			// the state a PrepareUpdate round to cl.good would have
			// produced. The prepare phase is already done; commit.
			c.metrics.specHits.Inc()
			c.commitPhase(ctx, r, op, specVersion, quorum)
			c.afterWrite(ctx, r, op, u, nil, specVersion, cl)
			return specVersion, nil
		}
		c.metrics.specMisses.Inc()
		if version, err := c.executeWrite(ctx, r, op, u, nil, cl); err == nil {
			// Members that granted the lock without taking part (a
			// recovering replica) are let go.
			c.unlock(ctx, r, op, held.Diff(cl.responders))
			c.afterWrite(ctx, r, op, u, nil, version, cl)
			return version, nil
		}
		// Prepare-stage conflict: nothing applied, locks released — fall
		// through to the heavy procedure, as the paper does when the
		// atomic action fails.
	}
	return c.heavyWrite(ctx, r, op, u, held)
}

// heavyWrite is the paper's HeavyProcedure: request permission from every
// replica (re-polling is idempotent for nodes already locked by this op),
// then either execute the write or abort.
func (c *Coordinator) heavyWrite(ctx context.Context, r *rounds, op replica.OpID, u replica.Update, alreadyLocked nodeset.Set) (uint64, error) {
	c.metrics.heavy.Inc()
	r.a.Heavy()
	res := c.lockRound(ctx, r, c.all, replica.Envelope{Item: c.item.Name(), Msg: replica.LockRequest{Op: op, Mode: replica.LockWrite}})
	if !res.refusedBy.Empty() {
		c.releaseAll(ctx, r, op, res.held().Union(alreadyLocked))
		return 0, errRefused
	}
	cl := classify(res.responses)
	release := alreadyLocked.Union(res.held())
	if cl.responders.Empty() ||
		!c.layout(cl.maxEpoch.EpochNum, cl.maxEpoch.Epoch).IsWriteQuorum(cl.responders) ||
		!cl.currentReachable() {
		// "There is no reason to wait for possible epoch change because
		// such an operation can succeed only if it can obtain a quorum as
		// well." (paper, Section 4.1) The heavy procedure is this op's last
		// attempt, so its releases are terminal and go one-way.
		c.releaseAll(ctx, r, op, release)
		return 0, fmt.Errorf("%w: no write quorum with a current replica (epoch %d)", ErrUnavailable, cl.maxEpoch.EpochNum)
	}
	version, err := c.executeWrite(ctx, r, op, u, nil, cl)
	// Commit or abort, executeWrite settled its participants and logged the
	// decision. Whoever else holds the op's lock — first-round members that
	// did not answer this round, recovering replicas — is only unlocked: an
	// abort logged here would overwrite a commit.
	c.unlock(ctx, r, op, release.Diff(cl.responders))
	if err == nil {
		c.afterWrite(ctx, r, op, u, nil, version, cl)
	}
	return version, err
}

// executeWrite runs the two-phase commit of a classified write of the run u,
// more… — one update, or a group-committed batch (combiner.go), whose
// updates produce consecutive versions and commit or abort together: the
// good responders stage the run (carrying the stale list for propagation),
// the remaining responders are marked stale desiring the run's last
// version, the one the good replicas will reach. A stale member desiring
// less could be propagated to an earlier version of the run, clear its
// mark there and serve a stale read. It returns the run's first version.
// Its one failure is ErrConflict, before the commit: a prepare some
// participant refused; it has then aborted the responders and applied
// nothing.
func (c *Coordinator) executeWrite(ctx context.Context, r *rounds, op replica.OpID, u replica.Update, more []replica.Update, cl classification) (uint64, error) {
	newVersion := cl.maxVersion + 1
	last := newVersion + uint64(len(more))
	goodSet := cl.good

	began := r.clock.Now
	prepared := c.ackRound(ctx, r, goodSet, replica.PrepareUpdate{
		Op: op, Update: u, More: more, NewVersion: newVersion, StaleSet: cl.stale, GoodSet: goodSet,
	})
	r.a.Phase(obs.PhasePrepare, began, r.clock.Now, prepared.Len(), 0)
	if !prepared.Equal(goodSet) {
		c.abortAll(ctx, r, op, cl.responders)
		return 0, fmt.Errorf("%w: %d of %d good replicas failed to prepare", ErrConflict, goodSet.Len()-prepared.Len(), goodSet.Len())
	}
	if !cl.stale.Empty() {
		r.a.StaleMark(cl.stale, last)
		preparedStale := c.ackRound(ctx, r, cl.stale, replica.PrepareStale{
			Op: op, Desired: last, GoodSet: goodSet,
		})
		if !preparedStale.Equal(cl.stale) {
			c.abortAll(ctx, r, op, cl.responders)
			return 0, fmt.Errorf("%w: stale-marking prepare incomplete", ErrConflict)
		}
	}
	c.commitPhase(ctx, r, op, newVersion, cl.responders)
	return newVersion, nil
}

// afterWrite is what follows a committed write of the run u, more… that
// produced version onward from the responses classified in cl: the
// safety-threshold extension (never for a run: group commit is off under
// it), then the write-through of the whole run to everyone neither of them
// reached. Callers run it once the operation holds no lock anywhere. A
// direct-apply may wait in the receiving replica's lock queue (behind
// readers only, see the replica's acquireBehindReaders) as a single-site
// operation, outside the replicas' conflict order, and that is only
// deadlock-free for an operation nobody else is waiting for.
func (c *Coordinator) afterWrite(ctx context.Context, r *rounds, op replica.OpID, u replica.Update, more []replica.Update, version uint64, cl classification) {
	written := c.applySafetyThreshold(ctx, r, op, u, version, cl)
	c.pushThrough(ctx, cl.maxEpoch.Epoch, written, replica.ApplyDirect{Op: op, Update: u, More: more, NewVersion: version, GoodSet: cl.good})
}

// commitPhase distributes the commit decision of a fully prepared write
// whose first version is version, one-way. The write is decided the moment
// every good replica is prepared and the decision is recorded at the
// coordinator's replica (the write-ahead step): from then on no participant
// can abort, readers of the new value block on the participants' still-held
// locks until the commit lands, and a participant whose commit message is
// lost resolves through the decision log (replica/decision.go). Waiting for
// commit acknowledgements would buy no safety — only the round-trip it
// costs. The local replica commits synchronously inside fireAndForget,
// which keeps the coordinator's own state (and the value it serves reads
// from) current when Write returns.
func (c *Coordinator) commitPhase(ctx context.Context, r *rounds, op replica.OpID, version uint64, responders nodeset.Set) {
	began := r.clock.Now
	c.item.RecordCommit(op, version)
	c.fireAndForget(ctx, r, responders, replica.Commit{Op: op})
	r.a.Phase(obs.PhaseCommit, began, r.clock.Now, responders.Len(), 0)
}

// applySafetyThreshold implements the Section 4.1 extension: when fewer
// than SafetyThreshold good replicas carry the new value, directly apply
// the update to additional replicas recorded as good by the previous write.
// No permission round is needed; a replica refuses if it is not current.
// It returns the members that have been sent the update by now — the
// write's responders and the ones tried here — so that write-through does
// not send these the same direct-apply again.
func (c *Coordinator) applySafetyThreshold(ctx context.Context, r *rounds, op replica.OpID, u replica.Update, newVersion uint64, cl classification) nodeset.Set {
	written := cl.responders
	need := c.opts.SafetyThreshold - cl.good.Len()
	if c.opts.SafetyThreshold <= 0 || need <= 0 {
		return written
	}
	// Candidates: replicas the previous write recorded as good, not already
	// written, minus stale-marked responders.
	candidates := cl.bestGoodList.Diff(cl.good).Diff(cl.stale)
	for _, id := range candidates.IDs() {
		if need <= 0 {
			break
		}
		written = written.Union(nodeset.New(id))
		if !c.ackRound(ctx, r, nodeset.New(id), replica.ApplyDirect{Op: op, Update: u, NewVersion: newVersion, GoodSet: cl.good}).Empty() {
			need--
		}
	}
	return written
}

// Read returns the most recent value of the data item (paper: "the read
// protocol is similar to the write protocol except it does not update any
// replicas"). It locks a read quorum shared, verifies a current replica
// answered, fetches the value from it, and releases the locks.
func (c *Coordinator) Read(ctx context.Context) (value []byte, version uint64, err error) {
	op := c.item.NextOp()
	c.metrics.reads.Inc()
	r := c.operation(ctx, obs.OpRead, op.Seq)
	for attempt := 0; ; attempt++ {
		value, version, err = c.read(ctx, r, op)
		if !c.retryRefused(ctx, r, attempt, err) {
			break
		}
		op = c.item.NextOp()
	}
	c.done(r, outcomeOf(err), version)
	return value, version, err
}

// readRedraws bounds how many times a contended fast read re-rolls its
// quorum before escalating to the heavy procedure. One redraw squares the
// (small) collision probability away, while keeping the worst case at
// three rounds; more attempts trade heavy-path certainty for latency.
const readRedraws = 1

func (c *Coordinator) read(ctx context.Context, r *rounds, op replica.OpID) (value []byte, version uint64, err error) {
	local := c.item.State()

	lay := c.layout(local.EpochNum, local.Epoch)
	h := hint(op)
	for attempt := 0; ; attempt++ {
		quorum, ok := c.pickReadQuorum(lay, local.Epoch, h)
		if !ok {
			break
		}
		c.noteQuorum(r.a, quorumRead, lay, quorum)
		began := r.clock.Now
		res := c.snapRound(ctx, r, op, quorum)
		busy := res.busy
		r.a.Phase(obs.PhaseLock, began, r.clock.Now, len(res.responses), busy.Len())
		if !busy.Empty() {
			r.a.LockBusy(busy)
		}
		cl := classify(res.responses)
		c.noteRedirect(r.a, local.EpochNum, cl)
		formed := !cl.responders.Empty() && c.layoutAt(lay, local.EpochNum, cl.maxEpoch).IsReadQuorum(cl.responders)
		if formed && cl.currentReachable() {
			// Every snapshot released its replica lock before replying, so
			// there is no fetch round and nothing to release or abort: return
			// the freshest good snapshot's value.
			return res.value, cl.maxVersion, nil
		}
		// Two transient failure shapes are worth one cheap retry before
		// the heavy procedure: a member answered "busy" (a concurrent
		// write holds its replica lock — and a write stuck on a slow
		// member holds locks for whole round-trips), or the quorum formed
		// but saw an in-flight write's stale marks (maxDesired ahead of
		// every fresh version — the commit lands within about a round
		// trip). Redraw a very likely different quorum and try once more:
		// the heavy path polls every replica, so it always pays for the
		// slowest node, which is exactly what quorum selection was
		// steering around. Snapshots hold no locks past their reply, so
		// the retry starts clean. Pure call failures (members down) skip
		// straight to the heavy path — a redraw over the same epoch
		// cannot dodge a dead node any faster.
		if attempt >= readRedraws || (busy.Empty() && !formed) {
			break
		}
		c.metrics.readRedraws.Inc()
		h = remix(h)
	}
	return c.heavyRead(ctx, r, op, nodeset.Set{})
}

// heavyRead polls all replicas, mirroring HeavyProcedure for reads.
func (c *Coordinator) heavyRead(ctx context.Context, r *rounds, op replica.OpID, alreadyLocked nodeset.Set) ([]byte, uint64, error) {
	c.metrics.heavy.Inc()
	r.a.Heavy()
	res := c.lockRound(ctx, r, c.all, replica.Envelope{Item: c.item.Name(), Msg: replica.LockRequest{Op: op, Mode: replica.LockRead}})
	if !res.refusedBy.Empty() {
		c.unlock(ctx, r, op, res.held().Union(alreadyLocked))
		return nil, 0, errRefused
	}
	cl := classify(res.responses)
	// Terminal either way — success or error, this op's ID is never locked
	// again.
	defer c.unlock(ctx, r, op, alreadyLocked.Union(res.held()))
	if cl.responders.Empty() ||
		!c.layout(cl.maxEpoch.EpochNum, cl.maxEpoch.Epoch).IsReadQuorum(cl.responders) ||
		!cl.currentReachable() {
		return nil, 0, fmt.Errorf("%w: no read quorum with a current replica (epoch %d)", ErrUnavailable, cl.maxEpoch.EpochNum)
	}
	return c.fetchBest(ctx, r, op, cl)
}

// fetchBest retrieves the value from a good responder at the maximum
// version, preferring the local replica to save a round trip.
func (c *Coordinator) fetchBest(ctx context.Context, r *rounds, op replica.OpID, cl classification) ([]byte, uint64, error) {
	target, ok := cl.good.Min()
	if !ok {
		return nil, 0, fmt.Errorf("%w: no current replica in quorum", ErrUnavailable)
	}
	if cl.good.Contains(c.item.Self()) {
		target = c.item.Self()
	}
	callCtx, cancel := deadline.Bound(ctx, c.opts.CallTimeout)
	defer cancel()
	began := r.clock.Now
	reply, err := c.net.Call(callCtx, c.item.Self(), target, replica.Envelope{
		Item: c.item.Name(), Msg: replica.FetchValue{Op: op},
	})
	if err != nil {
		r.a.Phase(obs.PhaseFetch, began, r.tick(), 0, 0)
		return nil, 0, fmt.Errorf("%w: value fetch from %v failed", ErrUnavailable, target)
	}
	r.a.Phase(obs.PhaseFetch, began, r.tick(), 1, 0)
	vr, ok := reply.(replica.ValueReply)
	if !ok {
		return nil, 0, fmt.Errorf("core: unexpected fetch reply %T", reply)
	}
	if vr.Version != cl.maxVersion {
		return nil, 0, fmt.Errorf("core: fetched version %d, expected %d", vr.Version, cl.maxVersion)
	}
	return vr.Value, vr.Version, nil
}
