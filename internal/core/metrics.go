package core

import (
	"errors"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// coordMetrics are the coordinator's counters, resolved once at
// construction against the (possibly Nop) registry so the hot path never
// touches registry maps. Every field is nil-safe: with observability
// disabled each Inc is a single predictable branch.
type coordMetrics struct {
	writes       *obs.Counter // core_writes_total
	reads        *obs.Counter // core_reads_total
	epochChecks  *obs.Counter // core_epoch_checks_total
	epochChanges *obs.Counter // core_epoch_changes_total
	redirects    *obs.Counter // core_epoch_redirects_total
	heavy        *obs.Counter // core_heavy_procedures_total
	// Group-commit instrumentation (combiner.go): flushes count batched
	// protocol rounds, fallbacks count batches that aborted cleanly and
	// returned their writers to the single-write flow, and the size
	// histogram records how many writes each flush merged.
	batchFlush    *obs.Counter   // core_batch_flush_total
	batchFallback *obs.Counter   // core_batch_fallback_total
	batchSize     *obs.Histogram // core_batch_size
	// Fused lock+prepare instrumentation (LockPrepare): hits are writes
	// whose whole quorum staged the speculative prepare (one round trip
	// saved), misses fell back to the classified prepare round.
	specHits   *obs.Counter // core_spec_prepare_hit_total
	specMisses *obs.Counter // core_spec_prepare_miss_total
	// readRedraws counts fast-path reads that hit lock contention and
	// retried once on a redrawn quorum before escalating to the heavy
	// procedure (see read()).
	readRedraws *obs.Counter // core_read_redraws_total
	// lockRetries counts lock rounds run again under a fresh OpID because a
	// replica refused the previous one (see retryRefused).
	lockRetries *obs.Counter // core_lock_retry_total
	// Write-through (push.go): one-way direct-applies sent to bystanders,
	// and bystanders the capacity rule left out. What became of the sent
	// ones is counted where they land: replica_push_applied_total and
	// replica_push_refused_{gap,stale,recovering}_total.
	pushSent    *obs.Counter // core_push_sent_total
	pushSkipped *obs.Counter // core_push_skipped_total
	// Quorum size, indexed by quorumRead / quorumWrite: rounds sent to a
	// drawn quorum (a fast read's snapshot round and each redraw of it, a
	// write's or a batch's lock round; heavy rounds poll every replica and
	// are not counted) and the members those rounds were sent to. Members
	// over rounds is the mean quorum size — what an operation costs in
	// locks and frames, and the first thing to look at when it costs more
	// than the rule's minimal quorums should.
	quorumRounds  [2]*obs.Counter // core_quorum_rounds_total
	quorumMembers [2]*obs.Counter // core_quorum_members_total
}

// Cells of the two quorum-size vectors.
const (
	quorumRead  = 0
	quorumWrite = 1
)

func newCoordMetrics(r *obs.Registry) coordMetrics {
	rounds, members := r.CounterVec("core_quorum_rounds_total"), r.CounterVec("core_quorum_members_total")
	return coordMetrics{
		quorumRounds:  [2]*obs.Counter{rounds.At(quorumRead), rounds.At(quorumWrite)},
		quorumMembers: [2]*obs.Counter{members.At(quorumRead), members.At(quorumWrite)},
		writes:        r.Counter("core_writes_total"),
		reads:         r.Counter("core_reads_total"),
		epochChecks:   r.Counter("core_epoch_checks_total"),
		epochChanges:  r.Counter("core_epoch_changes_total"),
		redirects:     r.Counter("core_epoch_redirects_total"),
		heavy:         r.Counter("core_heavy_procedures_total"),
		batchFlush:    r.Counter("core_batch_flush_total"),
		batchFallback: r.Counter("core_batch_fallback_total"),
		batchSize:     r.Histogram("core_batch_size"),
		specHits:      r.Counter("core_spec_prepare_hit_total"),
		specMisses:    r.Counter("core_spec_prepare_miss_total"),
		readRedraws:   r.Counter("core_read_redraws_total"),
		lockRetries:   r.Counter("core_lock_retry_total"),
		pushSent:      r.Counter("core_push_sent_total"),
		pushSkipped:   r.Counter("core_push_skipped_total"),
	}
}

// outcomeOf maps an operation's error to its trace outcome.
func outcomeOf(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrConflict):
		return obs.OutcomeConflict
	case errors.Is(err, ErrUnavailable):
		return obs.OutcomeUnavailable
	default:
		return obs.OutcomeError
	}
}

// noteQuorum records the quorum a round is about to be sent to — kind is
// quorumRead or quorumWrite — on the size counters and the trace.
func (c *Coordinator) noteQuorum(a *obs.ActiveOp, kind int, lay *coterie.Layout, quorum nodeset.Set) {
	c.metrics.quorumRounds[kind].Inc()
	c.metrics.quorumMembers[kind].Add(uint64(quorum.Len()))
	rows, cols, _ := lay.GridShape()
	a.Quorum(quorum, rows, cols)
}

// noteRedirect records an epoch redirect — the response set carried a later
// epoch than the one quorum selection used — on both the counter and the
// trace.
func (c *Coordinator) noteRedirect(a *obs.ActiveOp, cachedNum uint64, cl classification) {
	if cl.maxEpoch.EpochNum > cachedNum {
		c.metrics.redirects.Inc()
		a.Redirect(cachedNum, cl.maxEpoch.EpochNum)
	}
}
