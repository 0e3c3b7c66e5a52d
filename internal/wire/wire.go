// Package wire is the binary codec for the replication protocol's
// messages: every message a node sends — including the Envelope routing
// wrapper — marshals to a compact, self-describing byte string and back.
//
// The in-process simulation passes Go values directly; this codec is what
// makes the protocol deployable over a real network, and the paper's
// footnote 1 ("sets of nodes can be encoded very tightly as a binary
// vector") sets the tone: epoch lists and stale lists ride in every write
// and epoch message, so they use nodeset's bit-vector encoding, and all
// integers are varints.
//
// Format: one tag byte identifying the concrete type, then the fields in
// declaration order — uvarints for integers, length-prefixed bytes for
// strings and buffers, a single byte for booleans, nodeset's canonical
// encoding for sets. Envelope nests an encoded message. Decoding is strict:
// unknown tags and truncated input are errors, and trailing garbage after
// a complete top-level message is rejected.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"coterie/internal/capi"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

// ErrTruncated reports input that ended mid-message.
var ErrTruncated = errors.New("wire: truncated message")

// Type tags. The zero tag is reserved so an all-zero buffer never decodes.
const (
	tagInvalid byte = iota
	tagEnvelope
	tagStateQuery
	tagGroupStateQuery
	tagGroupStateReply
	tagLockRequest
	tagStateReply
	tagFetchValue
	tagValueReply
	tagPrepareUpdate
	tagPrepareStale
	tagPrepareReplace
	tagApplyDirect
	tagPrepareEpoch
	tagCommit
	tagAbort
	tagAck
	tagDecisionQuery
	tagDecisionReply
	tagPropagationOffer
	tagPropagationReply
	tagPropagationData
	tagProbe
	tagTakeOver
	tagAnnounce
	tagAliveReply
	tagLeaderReply
	tagAnnounceAck
	tagPrepareBatch
	tagBatchPropagationOffer
	tagBatchPropagationReply
	tagBatchPropagationData
	tagBatchPropagationAck
	tagClientRead
	tagClientReadReply
	tagClientWrite
	tagClientWriteReply
	tagClientCheckEpoch
	tagClientCheckReply
	tagLockPrepare
	tagLockPrepareReply
	tagReadSnap
	tagSnapReply
	tagClientMapQuery
	tagClientMapReply
	tagLockRefused
)

// Marshal encodes a protocol message.
func Marshal(msg any) ([]byte, error) {
	return AppendMarshal(nil, msg)
}

// AppendMarshal appends msg's encoding to dst and returns the extended
// slice. It is the buffer-reuse form of Marshal: a caller encoding into a
// pooled buffer with sufficient capacity (the TCP transport's frame
// writer, a batch encoder) performs no allocations — nested Envelope
// payloads stage through a package pool of scratch buffers, so even the
// envelope path is allocation-free in steady state (gated by
// TestAppendMarshalDoesNotAllocate).
func AppendMarshal(dst []byte, msg any) ([]byte, error) {
	return appendMessage(dst, msg)
}

// innerPool holds the scratch buffers Envelope encoding stages its nested
// payload in (the payload is length-prefixed, so it cannot be appended to
// dst directly before its size is known).
var innerPool = sync.Pool{New: func() any { return new([]byte) }}

// Unmarshal decodes one protocol message occupying the whole buffer.
func Unmarshal(b []byte) (any, error) {
	msg, n, err := decodeMessage(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(b)-n)
	}
	return msg, nil
}

// --- encoding helpers ---

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func putBytes(b []byte, p []byte) []byte {
	b = putUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func putString(b []byte, s string) []byte { return putBytes(b, []byte(s)) }

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func putSet(b []byte, s nodeset.Set) []byte { return s.AppendEncode(b) }

func putOp(b []byte, op replica.OpID) []byte {
	b = putUvarint(b, uint64(op.Coordinator))
	return putUvarint(b, op.Seq)
}

func putUpdate(b []byte, u replica.Update) []byte {
	b = putUvarint(b, uint64(u.Offset))
	return putBytes(b, u.Data)
}

func putPropagationData(b []byte, m replica.PropagationData) []byte {
	b = putOp(b, m.Op)
	b = putUvarint(b, m.FromVersion)
	b = putUvarint(b, uint64(len(m.Updates)))
	for _, u := range m.Updates {
		b = putUpdate(b, u)
	}
	b = putBool(b, m.HasSnapshot)
	b = putBytes(b, m.Snapshot)
	return putUvarint(b, m.SnapVersion)
}

func putStateReply(b []byte, st replica.StateReply) []byte {
	b = putUvarint(b, uint64(st.Node))
	b = putUvarint(b, st.Version)
	b = putUvarint(b, st.Desired)
	b = putBool(b, st.Stale)
	b = putSet(b, st.Epoch)
	b = putUvarint(b, st.EpochNum)
	b = putSet(b, st.Good)
	b = putUvarint(b, st.GoodVer)
	return putBool(b, st.Recovering)
}

// --- decoding helpers ---

type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	// Reject non-minimal encodings (a value padded with continuation
	// bytes, e.g. 0x80 0x00 for zero). Encoders only produce minimal
	// varints, so accepting padded forms would just give one value many
	// encodings — decoding is canonical: every accepted message re-encodes
	// to exactly the bytes it was decoded from.
	if n > 1 && v>>(7*(n-1)) == 0 {
		r.fail(fmt.Errorf("wire: non-minimal varint"))
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) boolean() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.b) {
		r.fail(ErrTruncated)
		return false
	}
	v := r.b[r.pos]
	r.pos++
	if v > 1 {
		r.fail(fmt.Errorf("wire: invalid boolean %d", v))
	}
	return v == 1
}

func (r *reader) set() nodeset.Set {
	if r.err != nil {
		return nodeset.Set{}
	}
	s, n, err := nodeset.Decode(r.b[r.pos:])
	if err != nil {
		r.fail(err)
		return nodeset.Set{}
	}
	r.pos += n
	return s
}

func (r *reader) node() nodeset.ID {
	v := r.uvarint()
	if v >= nodeset.MaxNodes {
		r.fail(fmt.Errorf("wire: node ID %d out of range", v))
		return 0
	}
	return nodeset.ID(v)
}

func (r *reader) op() replica.OpID {
	return replica.OpID{Coordinator: r.node(), Seq: r.uvarint()}
}

func (r *reader) update() replica.Update {
	off := r.uvarint()
	if off > math.MaxInt32 {
		r.fail(fmt.Errorf("wire: update offset %d out of range", off))
		return replica.Update{}
	}
	return replica.Update{Offset: int(off), Data: r.bytes()}
}

// remaining bounds a decoded element count: each element consumes at least
// one byte, so a count beyond the remaining bytes is truncation.
func (r *reader) remaining() uint64 { return uint64(len(r.b) - r.pos) }

func (r *reader) propagationData() replica.PropagationData {
	op := r.op()
	from := r.uvarint()
	count := r.uvarint()
	if count > r.remaining() {
		r.fail(ErrTruncated)
		return replica.PropagationData{}
	}
	updates := make([]replica.Update, 0, count)
	for i := uint64(0); i < count && r.err == nil; i++ {
		updates = append(updates, r.update())
	}
	return replica.PropagationData{
		Op: op, FromVersion: from, Updates: updates,
		HasSnapshot: r.boolean(), Snapshot: r.bytes(), SnapVersion: r.uvarint(),
	}
}

func (r *reader) propStatus() replica.PropStatus {
	status := r.uvarint()
	if status > uint64(replica.PropIAmCurrent) {
		r.fail(fmt.Errorf("wire: invalid propagation status %d", status))
		return 0
	}
	return replica.PropStatus(status)
}

func (r *reader) clientStatus() capi.Status {
	status := r.uvarint()
	if status > uint64(capi.StatusWrongShard) {
		r.fail(fmt.Errorf("wire: invalid client status %d", status))
		return 0
	}
	return capi.Status(status)
}

// shardCount decodes a shard-map cardinality (shard count or replication
// factor) with a sanity bound so a corrupt frame cannot smuggle in a value
// that later provokes a giant allocation.
func (r *reader) shardCount() uint32 {
	v := r.uvarint()
	const maxShardCount = 1 << 24
	if v > maxShardCount {
		r.fail(fmt.Errorf("wire: shard-map cardinality %d exceeds limit", v))
		return 0
	}
	return uint32(v)
}

func (r *reader) stateReply() replica.StateReply {
	return replica.StateReply{
		Node:       r.node(),
		Version:    r.uvarint(),
		Desired:    r.uvarint(),
		Stale:      r.boolean(),
		Epoch:      r.set(),
		EpochNum:   r.uvarint(),
		Good:       r.set(),
		GoodVer:    r.uvarint(),
		Recovering: r.boolean(),
	}
}
