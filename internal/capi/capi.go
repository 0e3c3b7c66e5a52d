// Package capi defines the client-facing RPC messages of a coterie daemon
// (cmd/coteried): the operations a client outside the replica set submits
// to a node hosting a coordinator — reads, partial writes, and epoch
// checks — and their replies.
//
// The messages ride the same wire codec and framed transport as the
// replication protocol itself; a daemon routes them by concrete type
// (transport.Mux) to handlers that invoke the co-located core.Coordinator.
// Outcomes cross the wire as a Status code rather than an error string so
// clients can classify dispositions (quorum unavailability, lock
// conflicts, ...) without parsing text.
//
// capi deliberately does not import internal/core: the wire codec encodes
// these messages and core's own tests round-trip protocol messages through
// wire, so a capi→core edge would cycle. The daemon maps core's errors to
// Status; clients map Status back to whatever error taxonomy they use.
package capi

import (
	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

// Status classifies an operation's disposition at the serving daemon.
type Status uint8

const (
	// StatusOK: the operation committed; Version (and Value for reads) are
	// meaningful.
	StatusOK Status = iota
	// StatusUnavailable: the coordinator could not assemble the quorum and
	// current replica the operation needs (core.ErrUnavailable). For
	// writes this outcome is ambiguous — the commit phase may have begun —
	// so a history checker must treat the write as possibly applied.
	StatusUnavailable
	// StatusConflict: the operation aborted cleanly after losing lock
	// races (core.ErrConflict); nothing was applied.
	StatusConflict
	// StatusError: any other failure; Detail carries the error text. Like
	// StatusUnavailable, ambiguous for writes.
	StatusError
	// StatusWrongShard: the daemon refused the operation before executing
	// anything because it does not own the item's shard under its current
	// shard map — the client's cached map is stale (or the client routed
	// badly). Never ambiguous: safe to retry after refreshing the map
	// (MapQuery) from any daemon.
	StatusWrongShard
)

// String returns the status's wire-stable lowercase name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUnavailable:
		return "unavailable"
	case StatusConflict:
		return "conflict"
	case StatusError:
		return "error"
	case StatusWrongShard:
		return "wrong-shard"
	default:
		return "invalid"
	}
}

// Read asks the daemon to execute a protocol read of the named item
// through its local coordinator.
type Read struct {
	Item string
}

// ReadReply answers a Read.
type ReadReply struct {
	Status  Status
	Version uint64
	Value   []byte
	Detail  string // error text when Status != StatusOK
}

// Write asks the daemon to execute a partial write of the named item.
type Write struct {
	Item   string
	Update replica.Update
}

// WriteReply answers a Write with the version the write produced.
type WriteReply struct {
	Status  Status
	Version uint64
	Detail  string
}

// CheckEpoch asks the daemon to run one epoch-checking operation on the
// named item — the asynchronous structure-adjustment step a deployment
// drives after failures and repairs.
type CheckEpoch struct {
	Item string
}

// CheckReply answers a CheckEpoch.
type CheckReply struct {
	Status   Status
	Changed  bool   // an epoch change was installed
	EpochNum uint64 // the item's epoch number after the check
	Detail   string
}

// MapQuery asks a daemon for its current shard map. HaveVersion is the
// client's cached map version (0 for none); a daemon may answer a matching
// version with just the version number, leaving Nodes empty.
type MapQuery struct {
	HaveVersion uint64
}

// MapReply answers a MapQuery with the shard map's parameters. Rendezvous
// hashing makes the full shard->members table a pure function of these
// four values (internal/placement), so the table itself never crosses the
// wire: the client reconstructs it locally. Every daemon serves a map of
// at least one shard; the client refuses a reply with NumShards zero.
type MapReply struct {
	Version   uint64
	NumShards uint32
	RF        uint32
	Nodes     nodeset.Set
}
