package wire

import (
	"fmt"
	"sort"

	"coterie/internal/capi"
	"coterie/internal/election"
	"coterie/internal/replica"
)

// appendMessage encodes tag + payload for one message.
func appendMessage(b []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case replica.Envelope:
		// The nested payload is length-prefixed, so it is staged in a
		// pooled scratch buffer rather than allocated per message.
		bp := innerPool.Get().(*[]byte)
		inner, err := appendMessage((*bp)[:0], m.Msg)
		*bp = inner[:0] // keep the (possibly grown) buffer for reuse
		if err != nil {
			innerPool.Put(bp)
			return nil, fmt.Errorf("wire: envelope for %q: %w", m.Item, err)
		}
		b = append(b, tagEnvelope)
		b = putString(b, m.Item)
		b = putBytes(b, inner)
		innerPool.Put(bp)
		return b, nil
	case replica.StateQuery:
		return append(b, tagStateQuery), nil
	case replica.GroupStateQuery:
		return append(b, tagGroupStateQuery), nil
	case replica.GroupStateReply:
		b = append(b, tagGroupStateReply)
		b = putUvarint(b, uint64(len(m.States)))
		names := make([]string, 0, len(m.States))
		for name := range m.States {
			names = append(names, name)
		}
		sort.Strings(names) // canonical order
		for _, name := range names {
			b = putString(b, name)
			b = putStateReply(b, m.States[name])
		}
		return b, nil
	case replica.LockRequest:
		b = append(b, tagLockRequest)
		b = putOp(b, m.Op)
		return putUvarint(b, uint64(m.Mode)), nil
	case replica.LockPrepare:
		return putLockPrepare(b, &m), nil
	case *replica.LockPrepare:
		return putLockPrepare(b, m), nil
	case replica.LockPrepareReply:
		return putLockPrepareReply(b, &m), nil
	case *replica.LockPrepareReply:
		return putLockPrepareReply(b, m), nil
	case replica.LockRefused:
		return putLockRefused(b, &m), nil
	case *replica.LockRefused:
		return putLockRefused(b, m), nil
	case replica.ReadSnap:
		return putOp(append(b, tagReadSnap), m.Op), nil
	case *replica.ReadSnap:
		return putOp(append(b, tagReadSnap), m.Op), nil
	case replica.SnapReply:
		return putSnapReply(b, &m), nil
	case *replica.SnapReply:
		return putSnapReply(b, m), nil
	case replica.StateReply:
		return putStateReply(append(b, tagStateReply), m), nil
	case *replica.StateReply:
		return putStateReply(append(b, tagStateReply), *m), nil
	case replica.FetchValue:
		return putOp(append(b, tagFetchValue), m.Op), nil
	case replica.ValueReply:
		b = append(b, tagValueReply)
		b = putBytes(b, m.Value)
		return putUvarint(b, m.Version), nil
	case replica.PrepareUpdate:
		b = append(b, tagPrepareUpdate)
		b = putOp(b, m.Op)
		b = putUpdate(b, m.Update)
		b = putUpdates(b, m.More)
		b = putUvarint(b, m.NewVersion)
		b = putSet(b, m.StaleSet)
		return putSet(b, m.GoodSet), nil
	case replica.PrepareStale:
		b = append(b, tagPrepareStale)
		b = putOp(b, m.Op)
		b = putUvarint(b, m.Desired)
		return putSet(b, m.GoodSet), nil
	case replica.PrepareReplace:
		b = append(b, tagPrepareReplace)
		b = putOp(b, m.Op)
		b = putBytes(b, m.Value)
		b = putUvarint(b, m.NewVersion)
		b = putSet(b, m.StaleSet)
		return putSet(b, m.GoodSet), nil
	case replica.ApplyDirect:
		b = append(b, tagApplyDirect)
		b = putOp(b, m.Op)
		b = putUpdate(b, m.Update)
		b = putUpdates(b, m.More)
		b = putUvarint(b, m.NewVersion)
		return putSet(b, m.GoodSet), nil
	case replica.PrepareEpoch:
		b = append(b, tagPrepareEpoch)
		b = putOp(b, m.Op)
		b = putSet(b, m.Epoch)
		b = putUvarint(b, m.EpochNum)
		b = putSet(b, m.Good)
		return putUvarint(b, m.MaxVersion), nil
	case replica.Commit:
		return putOp(append(b, tagCommit), m.Op), nil
	case replica.Abort:
		return putOp(append(b, tagAbort), m.Op), nil
	case replica.Ack:
		b = append(b, tagAck)
		b = putBool(b, m.OK)
		return putString(b, m.Reason), nil
	case replica.DecisionQuery:
		b = putOp(append(b, tagDecisionQuery), m.Op)
		return putUvarint(b, m.NewVersion), nil
	case replica.DecisionReply:
		b = append(b, tagDecisionReply)
		b = putBool(b, m.Known)
		return putBool(b, m.Commit), nil
	case replica.PropagationOffer:
		b = append(b, tagPropagationOffer)
		b = putOp(b, m.Op)
		return putUvarint(b, m.Version), nil
	case replica.PropagationReply:
		b = append(b, tagPropagationReply)
		b = putUvarint(b, uint64(m.Status))
		return putUvarint(b, m.TargetVersion), nil
	case replica.PropagationData:
		return putPropagationData(append(b, tagPropagationData), m), nil
	case replica.BatchPropagationOffer:
		b = append(b, tagBatchPropagationOffer)
		b = putUvarint(b, uint64(len(m.Items)))
		for _, it := range m.Items {
			b = putString(b, it.Item)
			b = putOp(b, it.Op)
			b = putUvarint(b, it.Version)
		}
		return b, nil
	case replica.BatchPropagationReply:
		b = append(b, tagBatchPropagationReply)
		b = putUvarint(b, uint64(len(m.Items)))
		for _, it := range m.Items {
			b = putString(b, it.Item)
			b = putUvarint(b, uint64(it.Status))
			b = putUvarint(b, it.TargetVersion)
		}
		return b, nil
	case replica.BatchPropagationData:
		b = append(b, tagBatchPropagationData)
		b = putUvarint(b, uint64(len(m.Items)))
		for _, it := range m.Items {
			b = putString(b, it.Item)
			b = putPropagationData(b, it.Data)
		}
		return b, nil
	case replica.BatchPropagationAck:
		b = append(b, tagBatchPropagationAck)
		b = putUvarint(b, uint64(len(m.Items)))
		for _, it := range m.Items {
			b = putString(b, it.Item)
			b = putBool(b, it.OK)
			b = putString(b, it.Reason)
		}
		return b, nil
	case capi.Read:
		return putString(append(b, tagClientRead), m.Item), nil
	case capi.ReadReply:
		b = append(b, tagClientReadReply)
		b = putUvarint(b, uint64(m.Status))
		b = putUvarint(b, m.Version)
		b = putBytes(b, m.Value)
		return putString(b, m.Detail), nil
	case capi.Write:
		b = append(b, tagClientWrite)
		b = putString(b, m.Item)
		return putUpdate(b, m.Update), nil
	case capi.WriteReply:
		b = append(b, tagClientWriteReply)
		b = putUvarint(b, uint64(m.Status))
		b = putUvarint(b, m.Version)
		return putString(b, m.Detail), nil
	case capi.CheckEpoch:
		return putString(append(b, tagClientCheckEpoch), m.Item), nil
	case capi.CheckReply:
		b = append(b, tagClientCheckReply)
		b = putUvarint(b, uint64(m.Status))
		b = putBool(b, m.Changed)
		b = putUvarint(b, m.EpochNum)
		return putString(b, m.Detail), nil
	case capi.MapQuery:
		return putUvarint(append(b, tagClientMapQuery), m.HaveVersion), nil
	case capi.MapReply:
		b = append(b, tagClientMapReply)
		b = putUvarint(b, m.Version)
		b = putUvarint(b, uint64(m.NumShards))
		b = putUvarint(b, uint64(m.RF))
		return putSet(b, m.Nodes), nil
	case election.Probe:
		return putUvarint(append(b, tagProbe), uint64(m.From)), nil
	case election.TakeOver:
		return putUvarint(append(b, tagTakeOver), uint64(m.From)), nil
	case election.Announce:
		return putUvarint(append(b, tagAnnounce), uint64(m.Leader)), nil
	case election.AliveReply:
		return putUvarint(append(b, tagAliveReply), uint64(m.From)), nil
	case election.LeaderReply:
		return putUvarint(append(b, tagLeaderReply), uint64(m.Leader)), nil
	case election.AnnounceAck:
		return append(b, tagAnnounceAck), nil
	default:
		return nil, fmt.Errorf("wire: unsupported message type %T", msg)
	}
}

// decodeMessage decodes one message from the front of b, returning the
// bytes consumed.
func decodeMessage(b []byte) (any, int, error) {
	if len(b) == 0 {
		return nil, 0, ErrTruncated
	}
	r := &reader{b: b, pos: 1}
	var msg any
	switch b[0] {
	case tagEnvelope:
		item := r.str()
		inner := r.bytes()
		if r.err != nil {
			break
		}
		innerMsg, n, err := decodeMessage(inner)
		if err != nil {
			return nil, 0, fmt.Errorf("wire: envelope payload: %w", err)
		}
		if n != len(inner) {
			return nil, 0, fmt.Errorf("wire: envelope payload has %d trailing bytes", len(inner)-n)
		}
		msg = replica.Envelope{Item: item, Msg: innerMsg}
	case tagStateQuery:
		msg = replica.StateQuery{}
	case tagGroupStateQuery:
		msg = replica.GroupStateQuery{}
	case tagGroupStateReply:
		n := r.uvarint()
		if n > uint64(len(b)) { // each entry needs at least one byte
			r.fail(ErrTruncated)
			break
		}
		states := make(map[string]replica.StateReply, n)
		prev := ""
		for i := uint64(0); i < n && r.err == nil; i++ {
			name := r.str()
			// The encoder writes entries in sorted name order; accepting
			// any other order (or duplicates, which a map would silently
			// fold) would give one reply many encodings.
			if i > 0 && name <= prev {
				r.fail(fmt.Errorf("wire: group state entries not in canonical order"))
				break
			}
			prev = name
			states[name] = r.stateReply()
		}
		msg = replica.GroupStateReply{States: states}
	case tagLockRequest:
		op := r.op()
		mode := r.uvarint()
		if mode > uint64(replica.LockWrite) {
			r.fail(fmt.Errorf("wire: invalid lock mode %d", mode))
			break
		}
		msg = replica.LockRequest{Op: op, Mode: replica.LockMode(mode)}
	case tagLockPrepare:
		msg = replica.LockPrepare{
			Op: r.op(), Update: r.update(), NewVersion: r.uvarint(), GoodSet: r.set(),
		}
	case tagLockPrepareReply:
		msg = &replica.LockPrepareReply{State: r.stateReply(), Prepared: r.boolean()}
	case tagLockRefused:
		msg = &replica.LockRefused{State: r.stateReply(), By: r.op()}
	case tagReadSnap:
		msg = replica.ReadSnap{Op: r.op()}
	case tagSnapReply:
		msg = &replica.SnapReply{State: r.stateReply(), Value: r.bytes()}
	case tagStateReply:
		st := r.stateReply()
		msg = &st
	case tagFetchValue:
		msg = replica.FetchValue{Op: r.op()}
	case tagValueReply:
		msg = replica.ValueReply{Value: r.bytes(), Version: r.uvarint()}
	case tagPrepareUpdate:
		msg = replica.PrepareUpdate{
			Op: r.op(), Update: r.update(), More: r.updates(), NewVersion: r.uvarint(),
			StaleSet: r.set(), GoodSet: r.set(),
		}
	case tagPrepareStale:
		msg = replica.PrepareStale{Op: r.op(), Desired: r.uvarint(), GoodSet: r.set()}
	case tagPrepareReplace:
		msg = replica.PrepareReplace{
			Op: r.op(), Value: r.bytes(), NewVersion: r.uvarint(),
			StaleSet: r.set(), GoodSet: r.set(),
		}
	case tagApplyDirect:
		msg = replica.ApplyDirect{
			Op: r.op(), Update: r.update(), More: r.updates(), NewVersion: r.uvarint(), GoodSet: r.set(),
		}
	case tagPrepareEpoch:
		msg = replica.PrepareEpoch{
			Op: r.op(), Epoch: r.set(), EpochNum: r.uvarint(),
			Good: r.set(), MaxVersion: r.uvarint(),
		}
	case tagCommit:
		msg = replica.Commit{Op: r.op()}
	case tagAbort:
		msg = replica.Abort{Op: r.op()}
	case tagAck:
		msg = replica.Ack{OK: r.boolean(), Reason: r.str()}
	case tagDecisionQuery:
		msg = replica.DecisionQuery{Op: r.op(), NewVersion: r.uvarint()}
	case tagDecisionReply:
		msg = replica.DecisionReply{Known: r.boolean(), Commit: r.boolean()}
	case tagPropagationOffer:
		msg = replica.PropagationOffer{Op: r.op(), Version: r.uvarint()}
	case tagPropagationReply:
		msg = replica.PropagationReply{Status: r.propStatus(), TargetVersion: r.uvarint()}
	case tagPropagationData:
		msg = r.propagationData()
	case tagBatchPropagationOffer:
		count := r.uvarint()
		if count > r.remaining() {
			r.fail(ErrTruncated)
			break
		}
		items := make([]replica.ItemOffer, 0, count)
		for i := uint64(0); i < count && r.err == nil; i++ {
			items = append(items, replica.ItemOffer{Item: r.str(), Op: r.op(), Version: r.uvarint()})
		}
		msg = replica.BatchPropagationOffer{Items: items}
	case tagBatchPropagationReply:
		count := r.uvarint()
		if count > r.remaining() {
			r.fail(ErrTruncated)
			break
		}
		items := make([]replica.ItemOfferReply, 0, count)
		for i := uint64(0); i < count && r.err == nil; i++ {
			items = append(items, replica.ItemOfferReply{Item: r.str(), Status: r.propStatus(), TargetVersion: r.uvarint()})
		}
		msg = replica.BatchPropagationReply{Items: items}
	case tagBatchPropagationData:
		count := r.uvarint()
		if count > r.remaining() {
			r.fail(ErrTruncated)
			break
		}
		items := make([]replica.ItemData, 0, count)
		for i := uint64(0); i < count && r.err == nil; i++ {
			items = append(items, replica.ItemData{Item: r.str(), Data: r.propagationData()})
		}
		msg = replica.BatchPropagationData{Items: items}
	case tagBatchPropagationAck:
		count := r.uvarint()
		if count > r.remaining() {
			r.fail(ErrTruncated)
			break
		}
		items := make([]replica.ItemAck, 0, count)
		for i := uint64(0); i < count && r.err == nil; i++ {
			items = append(items, replica.ItemAck{Item: r.str(), OK: r.boolean(), Reason: r.str()})
		}
		msg = replica.BatchPropagationAck{Items: items}
	case tagClientRead:
		msg = capi.Read{Item: r.str()}
	case tagClientReadReply:
		msg = capi.ReadReply{Status: r.clientStatus(), Version: r.uvarint(), Value: r.bytes(), Detail: r.str()}
	case tagClientWrite:
		msg = capi.Write{Item: r.str(), Update: r.update()}
	case tagClientWriteReply:
		msg = capi.WriteReply{Status: r.clientStatus(), Version: r.uvarint(), Detail: r.str()}
	case tagClientCheckEpoch:
		msg = capi.CheckEpoch{Item: r.str()}
	case tagClientCheckReply:
		msg = capi.CheckReply{Status: r.clientStatus(), Changed: r.boolean(), EpochNum: r.uvarint(), Detail: r.str()}
	case tagClientMapQuery:
		msg = capi.MapQuery{HaveVersion: r.uvarint()}
	case tagClientMapReply:
		msg = capi.MapReply{Version: r.uvarint(), NumShards: r.shardCount(), RF: r.shardCount(), Nodes: r.set()}
	case tagProbe:
		msg = election.Probe{From: r.node()}
	case tagTakeOver:
		msg = election.TakeOver{From: r.node()}
	case tagAnnounce:
		msg = election.Announce{Leader: r.node()}
	case tagAliveReply:
		msg = election.AliveReply{From: r.node()}
	case tagLeaderReply:
		msg = election.LeaderReply{Leader: r.node()}
	case tagAnnounceAck:
		msg = election.AnnounceAck{}
	default:
		return nil, 0, fmt.Errorf("wire: unknown tag %d", b[0])
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return msg, r.pos, nil
}
