package core

import (
	"errors"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
)

// TestAmnesiaCannotCauseStaleReads is the safety property that motivates
// the recovering state: a replica that witnessed the latest write and then
// lost its memory must not let any read observe an older version.
func TestAmnesiaCannotCauseStaleReads(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	ctx := ctxT(t)
	// Node 3 misses the write: a replica that honestly holds version 0 is
	// what a forgetful witness could be mistaken for.
	writeWithout(t, c, 0, replica.Update{Data: []byte("v1")}, 3)
	const good = nodeset.ID(0)
	if st := c.Replica(good).State(); st.Stale || st.Version != 1 {
		t.Fatalf("the coordinator's own replica is at version %d (stale=%v) after its write", st.Version, st.Stale)
	}
	if st := c.Replica(3).State(); st.Stale || st.Version != 0 {
		t.Fatalf("node 3 was down during the write yet is at version %d (stale=%v)", st.Version, st.Stale)
	}
	// The witness loses its memory and comes right back.
	c.CrashWithAmnesia(good)
	c.Restart(good)
	if !c.Replica(good).Recovering() {
		t.Fatal("replica not recovering after amnesia")
	}
	// Every read from every coordinator must still see version 1: the
	// recovering replica cannot vouch for any state, so quorums route
	// around it.
	for round := 0; round < 5; round++ {
		for _, id := range c.Members.IDs() {
			if id == good {
				continue
			}
			v, ver, err := c.Coordinator(id).Read(ctx)
			if err != nil {
				t.Fatalf("read from %v: %v", id, err)
			}
			if ver != 1 || string(v) != "v1" {
				t.Fatalf("STALE READ from %v: %q@%d", id, v, ver)
			}
		}
	}
}

func TestAmnesiaReadmissionViaEpochChange(t *testing.T) {
	c := newTestCluster(t, 9, nil)
	ctx := ctxT(t)
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("before-loss")}); err != nil {
		t.Fatal(err)
	}
	c.CrashWithAmnesia(4)
	c.Restart(4)

	res, err := c.CheckEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || !res.Epoch.Equal(c.Members) {
		t.Fatalf("epoch result = %+v", res)
	}
	if !res.Stale.Contains(4) {
		t.Errorf("amnesiac not readmitted as stale: %+v", res)
	}
	if c.Replica(4).Recovering() {
		t.Error("still recovering after epoch change")
	}
	// Propagation rebuilds the value. With fewer than MaxLog committed
	// writes the source's log still reaches version 0, so this is the
	// update-replay path onto the reborn store's initial base.
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(4).State()
		return !st.Stale && st.Version == 1
	}, "amnesiac never rebuilt")
	v, _ := c.Replica(4).Value()
	if string(v) != "before-loss" {
		t.Errorf("rebuilt value = %q", v)
	}
}

// TestAmnesiaRebuildKeepsFullValue pins the update-replay rebuild path
// with *partial* writes: the committed value is mostly untouched initial
// bytes, so a reborn store that replayed the log onto an empty base
// instead of the configured initial would come back truncated to the
// highest offset any update touched — exactly the corruption a read then
// serves. Regression test for a bug found by the networked churn harness.
func TestAmnesiaRebuildKeepsFullValue(t *testing.T) {
	const size = 32
	c := newTestCluster(t, 9, make([]byte, size))
	ctx := ctxT(t)
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Offset: 3, Data: []byte("ab")}); err != nil {
		t.Fatal(err)
	}
	c.CrashWithAmnesia(4)
	c.Restart(4)
	if _, err := c.CheckEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(4).State()
		return !st.Stale && st.Version == 1
	}, "amnesiac never rebuilt")
	want := make([]byte, size)
	copy(want[3:], "ab")
	if v, _ := c.Replica(4).Value(); string(v) != string(want) {
		t.Errorf("rebuilt value = %q (len %d), want %q (len %d)", v, len(v), want, size)
	}
}

func TestWritesProceedAroundRecoveringReplica(t *testing.T) {
	c := newTestCluster(t, 9, nil)
	ctx := ctxT(t)
	c.CrashWithAmnesia(8)
	c.Restart(8)
	// No epoch change yet: the recovering replica answers but cannot count;
	// the other 8 still hold grid quorums.
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("around")}); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Coordinator(3).Read(ctx)
	if err != nil || string(v) != "around" {
		t.Errorf("read %q, %v", v, err)
	}
	if !c.Replica(8).Recovering() {
		t.Error("recovering state cleared without an epoch change")
	}
}

func TestAmnesiaQuorumLossBlocksUntilReadmission(t *testing.T) {
	// Amnesia on enough nodes kills the quorum even though all nodes are
	// reachable — their memories are gone; only the epoch change (which
	// itself needs a quorum of remembering nodes) restores service.
	c := newTestCluster(t, 4, nil)
	ctx := ctxT(t)
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []nodeset.ID{1, 2} {
		c.CrashWithAmnesia(id)
		c.Restart(id)
	}
	// 2 of 4 remembering: the 2x2 grid needs 3 for a write.
	_, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("v2")})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write with two amnesiacs: %v", err)
	}
	// The epoch change needs a write quorum of remembering members over the
	// 4-epoch: {0,3} is not one, so the check fails too...
	if _, err := c.CheckEpoch(ctx); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("epoch check: %v", err)
	}
	// ...until one amnesiac is rebuilt by hand? No — the paper's model has
	// no path back (the witnesses are gone). This mirrors a static grid's
	// column loss: permanent until state is restored externally. Verify
	// reads still work (read quorum = one per column: {0,3} covers).
	if _, _, err := c.Coordinator(0).Read(ctx); err != nil {
		t.Errorf("read: %v", err)
	}
}

func TestAmnesiaHistoryStaysSerializable(t *testing.T) {
	c := newTestCluster(t, 9, make([]byte, 16))
	ctx := ctxT(t)
	rec := onecopy.NewRecorder(make([]byte, 16))

	write := func(from nodeset.ID, u replica.Update) {
		t.Helper()
		s := rec.Begin()
		ver, err := c.Coordinator(from).Write(ctx, u)
		if err != nil {
			t.Fatalf("write from %v: %v", from, err)
		}
		rec.EndWrite(s, ver, u)
	}
	read := func(from nodeset.ID) {
		t.Helper()
		s := rec.Begin()
		v, ver, err := c.Coordinator(from).Read(ctx)
		if err != nil {
			t.Fatalf("read from %v: %v", from, err)
		}
		rec.EndRead(s, ver, v)
	}

	write(0, replica.Update{Offset: 0, Data: []byte("aa")})
	read(5)
	c.CrashWithAmnesia(2)
	c.Restart(2)
	write(1, replica.Update{Offset: 4, Data: []byte("bb")})
	read(7)
	if _, err := c.CheckEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	write(2, replica.Update{Offset: 8, Data: []byte("cc")})
	read(2)
	read(8)
	if err := rec.Check(); err != nil {
		t.Fatalf("history: %v", err)
	}
}
