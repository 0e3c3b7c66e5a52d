package replica_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// TestSharedInitialIsNeverWritten: replicas keep the version-0 value they
// were given by reference, and any number of them are given the same slice.
// 64 items on two nodes, all 128 replicas on one slice, each take partial
// writes (one growing the value), a whole-value replace, a snapshot install,
// an amnesia and a replay of every update from version 0, the items
// concurrently — under -race a single write through the shared slice is a
// report, since every amnesia reads it. Afterwards the slice is byte for byte
// what it was, every read along the way returned what one copy would have
// held at its version, and replica_payload_bytes is the sum of the values'
// lengths.
func TestSharedInitialIsNeverWritten(t *testing.T) {
	const items, size = 64, 256
	initial := bytes.Repeat([]byte("initial."), size/8)
	pristine := bytes.Clone(initial)
	reg := obs.New()
	netw, members := transport.NewNetwork(), nodeset.New(0, 1)
	nodes := []*replica.Node{replica.NewNode(0, netw, replica.Config{Obs: reg}), replica.NewNode(1, netw, replica.Config{Obs: reg})}
	for _, n := range nodes {
		defer n.Close()
	}
	errs := make(chan error, items)
	var wg sync.WaitGroup
	for i := 0; i < items; i++ {
		name := fmt.Sprintf("item-%d", i)
		var reps [2]*replica.Item
		for k, n := range nodes {
			rep, _, err := n.EnsureItem(name, members, initial)
			if err != nil {
				t.Fatal(err)
			}
			reps[k] = rep
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveSharedInitial(reps, i, initial); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !bytes.Equal(initial, pristine) {
		t.Error("the shared initial value was written through")
	}
	payload := 0
	for _, n := range nodes {
		for _, name := range n.Items() {
			v, _ := n.Item(name).Value()
			payload += len(v)
		}
	}
	if got := reg.Gauge("replica_payload_bytes").Load(); got != int64(payload) || payload <= 2*items*size {
		t.Errorf("replica_payload_bytes = %d, the values hold %d bytes (more than the %d they started with)", got, payload, 2*items*size)
	}
	if got := reg.Gauge("replica_items").Load(); got != 2*items {
		t.Errorf("replica_items = %d, want %d", got, 2*items)
	}
}

// driveSharedInitial takes one item's two replicas through every way a value
// is created, changed or replaced, and checks each read against the one-copy
// model of the writes so far.
func driveSharedInitial(reps [2]*replica.Item, seed int, initial []byte) error {
	ctx := context.Background()
	rec := onecopy.NewRecorder(initial)
	var history []replica.Update // history[v-1] produced version v
	handle := func(rep *replica.Item, msg any) (transport.Message, error) {
		reply, err := rep.Handle(ctx, 0, msg)
		if ack, isAck := reply.(replica.Ack); err == nil && isAck && !ack.OK {
			err = fmt.Errorf("%T refused: %s", msg, ack.Reason)
		}
		return reply, err
	}
	// write commits u at each of the given replicas as the next version.
	write := func(u replica.Update, at ...*replica.Item) error {
		start, version := rec.Begin(), uint64(len(history)+1)
		for _, rep := range at {
			op := reps[0].NextOp()
			reply, err := handle(rep, replica.LockPrepare{Op: op, Update: u, NewVersion: version})
			if lp, _ := reply.(replica.LockPrepareReply); err != nil || !lp.Prepared {
				return fmt.Errorf("version %d not staged: reply %+v, err %v", version, reply, err)
			}
			if _, err := handle(rep, replica.Commit{Op: op}); err != nil {
				return err
			}
		}
		history = append(history, u)
		rec.EndWrite(start, version, u)
		return nil
	}
	// locked runs msgs at rep under one operation's exclusive lock; the last
	// of them releases it.
	locked := func(rep *replica.Item, msgs func(op replica.OpID) []any) error {
		op := reps[0].NextOp()
		if _, err := handle(rep, replica.LockRequest{Op: op, Mode: replica.LockWrite}); err != nil {
			return err
		}
		for _, msg := range msgs(op) {
			if _, err := handle(rep, msg); err != nil {
				return err
			}
		}
		return nil
	}
	read := func(at ...*replica.Item) error {
		for _, rep := range at {
			start := rec.Begin()
			reply, err := handle(rep, replica.ReadSnap{Op: reps[0].NextOp()})
			if err != nil {
				return err
			}
			snap := reply.(replica.SnapReply)
			rec.EndRead(start, snap.State.Version, snap.Value)
		}
		return nil
	}

	// Partial writes at both replicas, the last one past the end of the value.
	for k, u := range []replica.Update{
		{Offset: seed, Data: []byte{byte(seed), 'a'}},
		{Offset: seed + 1, Data: []byte("partial")},
		{Offset: len(initial) - 2, Data: []byte("grown")},
	} {
		if err := write(u, reps[0], reps[1]); err != nil {
			return fmt.Errorf("partial write %d: %w", k, err)
		}
	}
	if err := read(reps[0], reps[1]); err != nil {
		return err
	}
	// A whole-value replace at both: to one copy, an update over every byte.
	whole := bytes.Repeat([]byte{byte('A' + seed%26)}, len(initial)+3)
	start, version := rec.Begin(), uint64(len(history)+1)
	for _, rep := range reps {
		err := locked(rep, func(op replica.OpID) []any {
			return []any{replica.PrepareReplace{Op: op, Value: whole, NewVersion: version}, replica.Commit{Op: op}}
		})
		if err != nil {
			return fmt.Errorf("replace: %w", err)
		}
	}
	history = append(history, replica.Update{Data: whole})
	rec.EndWrite(start, version, replica.Update{Data: whole})
	if err := read(reps[0], reps[1]); err != nil {
		return err
	}
	// Replica 1 misses two writes and is brought level by a snapshot.
	for k := 0; k < 2; k++ {
		if err := write(replica.Update{Offset: 3 * k, Data: []byte{byte(k), byte(seed)}}, reps[0]); err != nil {
			return fmt.Errorf("write at replica 0 alone: %w", err)
		}
	}
	value, version := reps[0].Value()
	err := locked(reps[1], func(op replica.OpID) []any {
		return []any{replica.PropagationData{Op: op, HasSnapshot: true, Snapshot: value, SnapVersion: version}}
	})
	if err != nil {
		return fmt.Errorf("snapshot install: %w", err)
	}
	if err := read(reps[0], reps[1]); err != nil {
		return err
	}
	// Replica 1 loses everything and is rebuilt by replaying the whole
	// history onto what amnesia left: its own copy of the shared initial value.
	reps[1].Amnesia()
	if v, ver := reps[1].Value(); ver != 0 || !bytes.Equal(v, initial) {
		return fmt.Errorf("after amnesia: version %d, value %q", ver, v)
	}
	err = locked(reps[1], func(op replica.OpID) []any {
		return []any{replica.PropagationData{Op: op, FromVersion: 0, Updates: history}}
	})
	if err != nil {
		return fmt.Errorf("update replay: %w", err)
	}
	if err := read(reps[0], reps[1]); err != nil {
		return err
	}
	return rec.Check()
}
