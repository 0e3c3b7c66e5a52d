package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"coterie/internal/capi"
	"coterie/internal/election"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

func op(c nodeset.ID, s uint64) replica.OpID { return replica.OpID{Coordinator: c, Seq: s} }

// sampleMessages covers every supported message type with non-trivial
// field values.
func sampleMessages() []any {
	st := replica.StateReply{
		Node: 3, Version: 9, Desired: 11, Stale: true,
		Epoch: nodeset.New(0, 1, 2, 3, 70), EpochNum: 4,
		Good: nodeset.New(1, 3), GoodVer: 9, Recovering: true,
	}
	return []any{
		replica.StateQuery{},
		replica.GroupStateQuery{},
		replica.GroupStateReply{States: map[string]replica.StateReply{"a": st, "bb": {Node: 1}}},
		replica.LockRequest{Op: op(2, 7), Mode: replica.LockWrite},
		replica.LockRequest{Op: op(0, 1), Mode: replica.LockRead},
		st,
		replica.LockRefused{State: st, By: op(6, 41)},
		replica.LockRefused{By: op(0, 1)},
		replica.FetchValue{Op: op(1, 99)},
		replica.ValueReply{Value: []byte("some value"), Version: 12},
		replica.ValueReply{}, // empty value
		replica.PrepareUpdate{
			Op: op(5, 6), Update: replica.Update{Offset: 100, Data: []byte("abc")},
			NewVersion: 7, StaleSet: nodeset.New(1, 2), GoodSet: nodeset.New(5),
		},
		replica.PrepareStale{Op: op(4, 4), Desired: 13, GoodSet: nodeset.New(0)},
		replica.PrepareReplace{Op: op(3, 2), Value: []byte("total"), NewVersion: 5, StaleSet: nodeset.New(7), GoodSet: nodeset.New(3, 4)},
		replica.ApplyDirect{Op: op(6, 1), Update: replica.Update{Offset: 0, Data: []byte("d")}, NewVersion: 2, GoodSet: nodeset.New(6)},
		replica.ApplyDirect{
			Op: op(6, 2), Update: replica.Update{Offset: 1, Data: []byte("e")},
			More:       []replica.Update{{Offset: 2, Data: []byte("fg")}, {Offset: 0, Data: []byte("h")}},
			NewVersion: 3, GoodSet: nodeset.New(0, 6),
		},
		replica.PrepareEpoch{Op: op(8, 8), Epoch: nodeset.Range(0, 9), EpochNum: 3, Good: nodeset.New(0, 8), MaxVersion: 44},
		replica.Commit{Op: op(1, 2)},
		replica.Abort{Op: op(2, 3)},
		replica.Ack{OK: true},
		replica.Ack{OK: false, Reason: "replica is stale"},
		replica.DecisionQuery{Op: op(3, 9)},
		replica.DecisionReply{Known: true, Commit: true},
		replica.PropagationOffer{Op: op(7, 7), Version: 21},
		replica.PropagationReply{Status: replica.PropPermitted, TargetVersion: 18},
		replica.PropagationReply{Status: replica.PropIAmCurrent},
		replica.PropagationData{
			Op: op(9, 9), FromVersion: 3,
			Updates: []replica.Update{{Offset: 1, Data: []byte("x")}, {Offset: 2, Data: []byte("yz")}},
		},
		replica.PropagationData{Op: op(9, 10), HasSnapshot: true, Snapshot: []byte("snapshot bytes"), SnapVersion: 40},
		replica.PrepareUpdate{
			Op: op(2, 11), Update: replica.Update{Offset: 0, Data: []byte("ab")},
			More:       []replica.Update{{Offset: 9, Data: []byte("c")}, {Offset: 3, Data: []byte("def")}},
			NewVersion: 17, StaleSet: nodeset.New(2, 6), GoodSet: nodeset.New(0, 1, 3),
		},
		replica.PrepareUpdate{Op: op(0, 1), Update: replica.Update{Data: []byte("x")}, NewVersion: 1},
		replica.BatchPropagationOffer{Items: []replica.ItemOffer{
			{Item: "a", Op: op(1, 5), Version: 3},
			{Item: "long-item-name", Op: op(2, 6), Version: 0},
		}},
		replica.BatchPropagationOffer{},
		replica.BatchPropagationReply{Items: []replica.ItemOfferReply{
			{Item: "a", Status: replica.PropPermitted, TargetVersion: 2},
			{Item: "b", Status: replica.PropIAmCurrent},
		}},
		replica.BatchPropagationData{Items: []replica.ItemData{
			{Item: "a", Data: replica.PropagationData{Op: op(3, 3), FromVersion: 2, Updates: []replica.Update{{Offset: 4, Data: []byte("q")}}}},
			{Item: "b", Data: replica.PropagationData{Op: op(4, 4), HasSnapshot: true, Snapshot: []byte("snap"), SnapVersion: 9}},
		}},
		replica.BatchPropagationAck{Items: []replica.ItemAck{
			{Item: "a", OK: true},
			{Item: "b", OK: false, Reason: "replica is not stale"},
		}},
		capi.Read{Item: "item-0"},
		capi.ReadReply{Status: capi.StatusOK, Version: 7, Value: []byte("v7")},
		capi.ReadReply{Status: capi.StatusUnavailable, Detail: "no read quorum"},
		capi.Write{Item: "item-1", Update: replica.Update{Offset: 5, Data: []byte("xy")}},
		capi.WriteReply{Status: capi.StatusOK, Version: 8},
		capi.WriteReply{Status: capi.StatusConflict, Detail: "lock conflict"},
		capi.CheckEpoch{Item: "item-2"},
		capi.CheckReply{Status: capi.StatusOK, Changed: true, EpochNum: 3},
		capi.CheckReply{Status: capi.StatusError, Detail: "boom"},
		capi.ReadReply{Status: capi.StatusWrongShard, Detail: "shard 3 not owned"},
		capi.MapQuery{},
		capi.MapQuery{HaveVersion: 12},
		capi.MapReply{Version: 12, NumShards: 64, RF: 3, Nodes: nodeset.New(0, 1, 2, 3, 4)},
		capi.MapReply{Version: 1, NumShards: 1, RF: 1, Nodes: nodeset.New(9)},
		election.Probe{From: 2},
		election.TakeOver{From: 3},
		election.Announce{Leader: 8},
		election.AliveReply{From: 8},
		election.LeaderReply{Leader: 8},
		election.AnnounceAck{},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, msg := range sampleMessages() {
		buf, err := Marshal(msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", msg, err)
		}
		if !messagesEqual(msg, got) {
			t.Errorf("%T round trip:\n in: %#v\nout: %#v", msg, msg, got)
		}
	}
}

func TestRoundTripEnvelopes(t *testing.T) {
	for _, inner := range sampleMessages() {
		env := replica.Envelope{Item: "data/item-1", Msg: inner}
		buf, err := Marshal(env)
		if err != nil {
			t.Fatalf("envelope(%T): %v", inner, err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("envelope(%T): unmarshal: %v", inner, err)
		}
		genv, ok := got.(replica.Envelope)
		if !ok || genv.Item != env.Item || !messagesEqual(inner, genv.Msg) {
			t.Errorf("envelope(%T) round trip mismatch", inner)
		}
	}
}

// messagesEqual compares via reflect.DeepEqual after normalizing nodeset
// backing arrays (equal sets may differ in trailing zero words).
func messagesEqual(a, b any) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

// normalize re-encodes any nodeset.Set fields canonically by a marshal
// round trip of the whole message; since Marshal uses canonical set
// encoding, comparing the byte strings is an equality on message content.
func normalize(m any) string {
	buf, err := Marshal(m)
	if err != nil {
		return "error:" + err.Error()
	}
	return string(buf)
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil: %v", err)
	}
	if _, err := Unmarshal([]byte{0}); err == nil {
		t.Error("zero tag accepted")
	}
	if _, err := Unmarshal([]byte{255}); err == nil {
		t.Error("unknown tag accepted")
	}
	// Trailing garbage after a valid message.
	buf, _ := Marshal(replica.Commit{Op: op(1, 1)})
	if _, err := Unmarshal(append(buf, 0xEE)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Truncations of every sample at every length must error, not panic.
	for _, msg := range sampleMessages() {
		buf, _ := Marshal(msg)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Unmarshal(buf[:cut]); err == nil {
				t.Errorf("%T truncated at %d accepted", msg, cut)
			}
		}
	}
}

// TestTruncatedUpdateRunCount: a run whose count exceeds the bytes left
// fails as truncated before anything is allocated for it, in each message
// that carries one.
func TestTruncatedUpdateRunCount(t *testing.T) {
	for _, tag := range []byte{tagPrepareUpdate, tagApplyDirect} {
		b := putOp([]byte{tag}, op(1, 1))
		b = putUpdate(b, replica.Update{Data: []byte("x")})
		b = putUvarint(b, 1<<40)
		b = append(b, 0, 0, 0)
		if _, err := Unmarshal(b); !errors.Is(err, ErrTruncated) {
			t.Errorf("tag %d with a run count past the end: %v, want ErrTruncated", tag, err)
		}
	}
}

func TestUnsupportedTypeRejected(t *testing.T) {
	if _, err := Marshal(struct{ X int }{1}); err == nil {
		t.Error("unsupported type accepted")
	}
	if _, err := Marshal(replica.Envelope{Item: "x", Msg: 42}); err == nil {
		t.Error("envelope with unsupported payload accepted")
	}
}

func TestInvalidFieldValues(t *testing.T) {
	// Lock mode out of range.
	buf, _ := Marshal(replica.LockRequest{Op: op(1, 1), Mode: replica.LockWrite})
	buf[len(buf)-1] = 9
	if _, err := Unmarshal(buf); err == nil {
		t.Error("invalid lock mode accepted")
	}
	// Boolean out of range.
	buf, _ = Marshal(replica.Ack{OK: true})
	buf[1] = 7
	if _, err := Unmarshal(buf); err == nil {
		t.Error("invalid boolean accepted")
	}
	// Propagation status out of range.
	buf, _ = Marshal(replica.PropagationReply{Status: replica.PropIAmCurrent})
	buf[1] = 50
	if _, err := Unmarshal(buf); err == nil {
		t.Error("invalid propagation status accepted")
	}
}

// TestQuickFuzzDecode throws random bytes at Unmarshal: it must never
// panic and must reject or cleanly decode everything.
func TestQuickFuzzDecode(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, r.Intn(64))
		r.Read(buf)
		_, err := Unmarshal(buf)
		_ = err // any outcome but a panic is acceptable
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMutatedDecode flips bytes in valid encodings: decode must never
// panic, and a successful decode must re-encode without error.
func TestQuickMutatedDecode(t *testing.T) {
	samples := sampleMessages()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		buf, err := Marshal(samples[r.Intn(len(samples))])
		if err != nil {
			return false
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		msg, err := Unmarshal(buf)
		if err != nil {
			return true
		}
		_, err = Marshal(msg)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodingCompactness(t *testing.T) {
	// The paper's footnote 1: epoch lists ride as bit vectors. A 64-node
	// epoch list inside a StateReply costs ~2x 9-byte sets + a few varints,
	// far below a naive per-ID listing.
	st := replica.StateReply{Node: 1, Version: 1, Epoch: nodeset.Range(0, 64), Good: nodeset.Range(0, 64)}
	buf, err := Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 32 {
		t.Errorf("64-member StateReply encodes to %d bytes, want <= 32", len(buf))
	}
}
