package replica

import (
	"coterie/internal/nodeset"
)

// Protocol messages. Every message travels inside an Envelope naming the
// data item, so one node can replicate several items (the paper notes all
// algorithms are per-data-item, Section 3).

// Envelope routes a protocol message to one data item on the target node.
type Envelope struct {
	Item string
	Msg  any
}

// LockMode selects the lock strength of a phase-1 request.
type LockMode int

const (
	// LockRead takes the replica lock shared.
	LockRead LockMode = iota
	// LockWrite takes the replica lock exclusive.
	LockWrite
)

// StateQuery asks for the replica's state without locking. The epoch
// checking operation polls all replicas this way, so in the absence of
// failures it does not interfere with reads and writes (paper, Section 4.3).
type StateQuery struct{}

// GroupStateQuery asks a node for the states of all items it replicates in
// one round trip. When several data items live on the same set of nodes,
// epoch management polls the whole group at once, amortizing the overhead
// over the group (paper, Section 2). Sent bare, outside an Envelope.
type GroupStateQuery struct{}

// GroupStateReply answers a GroupStateQuery: one state per hosted item.
type GroupStateReply struct {
	States map[string]StateReply
}

// LockRequest is the phase-1 message of reads, writes and epoch changes:
// the replica acquires its lock for Op (blocking, bounded by the call's
// context) and responds with its state, or answers LockRefused at once if
// an older operation is ahead. Re-sending for the same Op is idempotent —
// HeavyProcedure re-polls nodes the quorum round already locked (paper,
// appendix).
type LockRequest struct {
	Op   OpID
	Mode LockMode
}

// LockPrepare fuses a write's phase-1 lock request with a speculative
// prepare. The coordinator predicts the classification a fully current
// quorum would produce — NewVersion is its local version + 1, GoodSet the
// quorum itself, no stale members — and piggybacks the update on the lock
// request. A replica that matches the prediction (non-stale, non-
// recovering, sitting exactly at NewVersion−1) stages the update while it
// already holds its lock, collapsing the lock and prepare rounds into
// one; a replica that does not simply grants the lock exactly as
// LockRequest would, and the coordinator runs the normal prepare round
// from the real classification (which overwrites any speculative staging
// at the replicas it does cover).
type LockPrepare struct {
	Op         OpID
	Update     Update
	NewVersion uint64
	GoodSet    nodeset.Set
}

// LockPrepareReply answers a LockPrepare: the lock round's state reply
// plus whether the speculative prepare staged on this replica.
type LockPrepareReply struct {
	State    StateReply
	Prepared bool
}

// LockRefused answers a LockRequest or LockPrepare that lost the conflict
// order (lock.go): operation By is older and holds the lock in a
// conflicting mode or is queued for it. Nothing was locked, queued or
// staged here; the coordinator releases the round's other grants and runs
// the round again under a fresh OpID.
type LockRefused struct {
	State StateReply
	By    OpID
}

// StateReply is the tuple (node, version, dversion, stale, elist, enumber)
// of the paper's appendix, extended with the recorded good-replica list of
// the safety-threshold extension (paper, Section 4.1: "the list of 'good'
// replicas is recorded in every node participating in a write operation").
type StateReply struct {
	Node     nodeset.ID
	Version  uint64
	Desired  uint64 // desired version; meaningful only when Stale
	Stale    bool
	Epoch    nodeset.Set // the epoch list
	EpochNum uint64
	Good     nodeset.Set // good list recorded by the last write this node saw
	GoodVer  uint64      // version that good list corresponds to
	// Recovering marks a replica that lost its stable state and awaits
	// readmission by an epoch change; coordinators must not count it
	// toward any quorum (see amnesia.go).
	Recovering bool
}

// ReadSnap fuses a read's lock, fetch and release into one message: the
// replica acquires Op's lock shared (blocking behind any in-flight
// write's exclusive hold, which is what orders the read against 2PC),
// atomically snapshots its state and value, releases immediately, and
// replies. The coordinator returns the maximum-version good value from a
// valid read quorum of such snapshots — no lock is left held, so no
// release round exists and a following write's lock round never parks
// behind a finished read.
type ReadSnap struct{ Op OpID }

// SnapReply answers a ReadSnap: the replica's state and the value it held
// at State.Version, captured in one atomic snapshot.
type SnapReply struct {
	State StateReply
	Value []byte
}

// FetchValue asks a replica holding Op's lock for its current value.
type FetchValue struct{ Op OpID }

// ValueReply carries a replica's value and version.
type ValueReply struct {
	Value   []byte
	Version uint64
}

// PrepareUpdate stages the "do-update" action at a GOOD replica: apply
// Update, advancing the replica to NewVersion, and (on commit) start
// propagation toward StaleSet. The replica refuses unless it holds Op's
// lock exclusively, is non-stale, and sits exactly at NewVersion−1.
//
// More carries the rest of a group-committed run, as in ApplyDirect:
// Update produces NewVersion, More[i] produces NewVersion+1+i, and the
// commit applies all of them or none. One batch is one atomic 2PC action,
// so K queued writers pay one set of protocol rounds instead of K (see
// core's combiner).
type PrepareUpdate struct {
	Op         OpID
	Update     Update
	More       []Update
	NewVersion uint64
	StaleSet   nodeset.Set
	GoodSet    nodeset.Set // recorded on commit for the safety-threshold extension
}

// PrepareStale stages the "mark-stale" action: set the stale-data flag and
// the desired version number (paper, appendix).
type PrepareStale struct {
	Op      OpID
	Desired uint64
	GoodSet nodeset.Set // recorded on commit for the safety-threshold extension
}

// PrepareReplace stages a *total* write: the replica's value is replaced
// wholesale and jumps to NewVersion regardless of its current version. The
// static structured coterie protocols and the paper's Section 6 analysis
// assume this write style ("write operations always replace the old data
// item with the new value"); replicas at different versions within the
// quorum all converge on the new value.
type PrepareReplace struct {
	Op         OpID
	Value      []byte
	NewVersion uint64
	StaleSet   nodeset.Set
	GoodSet    nodeset.Set
}

// ApplyDirect is the unsolicited write of the paper's Section 4.1: a
// current replica outside the contacted quorum applies the update with no
// permission round. The replica briefly takes its own lock, verifies it is
// non-stale and exactly one version behind, applies, and releases — all
// within this single message. Coordinators send it one-way to every
// bystander of a committed write (write-through) and synchronously for the
// safety-threshold extension.
//
// More carries the rest of a group-committed run: Update produces
// NewVersion, More[i] produces NewVersion+1+i, and the replica applies all
// of them or none. One message per batch, because one-way sends are not
// ordered among themselves and a run delivered out of order would be
// refused at the first gap.
type ApplyDirect struct {
	Op         OpID
	Update     Update
	More       []Update
	NewVersion uint64
	GoodSet    nodeset.Set
}

// PrepareEpoch stages the "new-epoch" action: adopt (Epoch, EpochNum);
// members outside Good also mark themselves stale with desired version
// MaxVersion; members of Good start propagation toward Epoch∖Good.
type PrepareEpoch struct {
	Op         OpID
	Epoch      nodeset.Set
	EpochNum   uint64
	Good       nodeset.Set
	MaxVersion uint64
}

// Commit finishes two-phase commit: apply the staged action and release
// Op's lock.
type Commit struct{ Op OpID }

// Abort discards any staged action and releases Op's lock. It doubles as
// the unlock message for reads and for lock-only participants.
type Abort struct{ Op OpID }

// Ack acknowledges a prepare/commit/abort. OK=false with Reason set means
// the participant refused (e.g. its lease expired and another operation
// took the lock).
type Ack struct {
	OK     bool
	Reason string
}

// DecisionQuery asks the coordinator's replica how operation Op was
// decided. Participants left prepared (pinned) after losing contact with
// their coordinator use it as a cooperative termination protocol: the
// coordinator records every commit/abort decision at its co-located
// replica before distributing it, so a recovered or reachable coordinator
// node can always answer (2PC recovery per the paper's reference [2]).
//
// NewVersion guards speculatively staged actions (LockPrepare): a
// participant whose staging the coordinator never acknowledged — its
// reply was lost — may hold a staged update the decided write did not
// cover. Such a participant sets NewVersion to its staged version, and
// the coordinator answers Commit only when the decided write produced
// exactly that version; any mismatch resolves as abort. Zero means the
// staging was coordinator-endorsed and the plain decision applies.
type DecisionQuery struct {
	Op         OpID
	NewVersion uint64
}

// DecisionReply answers a DecisionQuery.
type DecisionReply struct {
	Known  bool
	Commit bool
}

// PropagationOffer opens the propagation handshake: the source announces
// its version. The target answers with a PropagationReply (paper, appendix,
// PropagateResponse).
type PropagationOffer struct {
	Op      OpID
	Version uint64
}

// PropStatus enumerates the paper's three propagation responses.
type PropStatus int

const (
	// PropPermitted: the target locked its replica and awaits data.
	PropPermitted PropStatus = iota
	// PropAlreadyRecovering: another source is propagating to the target.
	PropAlreadyRecovering
	// PropIAmCurrent: the target needs nothing from this source.
	PropIAmCurrent
)

func (s PropStatus) String() string {
	switch s {
	case PropPermitted:
		return "propagation-permitted"
	case PropAlreadyRecovering:
		return "already-recovering"
	case PropIAmCurrent:
		return "i-am-current"
	default:
		return "unknown"
	}
}

// PropagationReply answers a PropagationOffer. TargetVersion (valid when
// Status is PropPermitted) tells the source which updates are missing.
type PropagationReply struct {
	Status        PropStatus
	TargetVersion uint64
}

// PropagationData delivers the missing updates — or a full snapshot when
// the source's update log no longer reaches back far enough — to a target
// that permitted propagation.
type PropagationData struct {
	Op          OpID
	FromVersion uint64   // version the Updates apply on top of
	Updates     []Update // in order; used when HasSnapshot is false
	HasSnapshot bool
	Snapshot    []byte
	SnapVersion uint64
}

// Batched propagation (node-level, sent bare like GroupStateQuery): when a
// node owes propagation for several items to the same target — the common
// shape after churn, where one partition event marks a whole node's
// replicas stale — the source offers all of them in ONE exchange and
// streams all permitted transfers in a second, instead of paying the
// offer/transfer negotiation per item. Each entry carries its own per-item
// OpID and routes through the same per-item offer/data handlers as the
// single-item path, so every safety rule (locked-for-propagation bit,
// i-am-current, already-recovering) is identical; batching only cuts round
// trips. Enabled by Config.PropagationBatch.

// ItemOffer is one item's entry in a BatchPropagationOffer.
type ItemOffer struct {
	Item    string
	Op      OpID
	Version uint64
}

// BatchPropagationOffer opens the batched handshake: the source announces
// its version for every item it owes the target.
type BatchPropagationOffer struct {
	Items []ItemOffer
}

// ItemOfferReply is one item's answer within a BatchPropagationReply.
type ItemOfferReply struct {
	Item          string
	Status        PropStatus
	TargetVersion uint64
}

// BatchPropagationReply answers a BatchPropagationOffer entry-by-entry.
type BatchPropagationReply struct {
	Items []ItemOfferReply
}

// ItemData is one item's transfer within a BatchPropagationData.
type ItemData struct {
	Item string
	Data PropagationData
}

// BatchPropagationData streams every permitted transfer in one exchange.
type BatchPropagationData struct {
	Items []ItemData
}

// ItemAck is one item's acknowledgement within a BatchPropagationAck.
type ItemAck struct {
	Item   string
	OK     bool
	Reason string
}

// BatchPropagationAck answers a BatchPropagationData entry-by-entry.
type BatchPropagationAck struct {
	Items []ItemAck
}
