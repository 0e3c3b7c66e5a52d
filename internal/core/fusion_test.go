package core

import (
	"bytes"
	"testing"

	"coterie/internal/obs"
	"coterie/internal/replica"
)

// The fused fast paths (speculative lock+prepare on writes, lock+snapshot
// on reads) are pure optimizations: every test here checks both that the
// intended path was taken (via the coordinator's counters) and that the
// data outcome is identical to the unfused protocol's. Write-through has
// its own file, push_test.go.

func specCounters(reg *obs.Registry) (hits, misses uint64) {
	return reg.Counter("core_spec_prepare_hit_total").Load(),
		reg.Counter("core_spec_prepare_miss_total").Load()
}

// TestSpeculativeWriteHits: on a single-node grid the coordinator's
// prediction (its own replica's version + 1) is always right, so every
// write must take the fused one-round path.
func TestSpeculativeWriteHits(t *testing.T) {
	opts := fastOptions()
	opts.Obs = obs.New()
	c, err := NewCluster(1, "item", make([]byte, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		mustWrite(t, c, 0, replica.Update{Offset: i % 4, Data: []byte{byte('a' + i)}})
	}
	hits, misses := specCounters(opts.Obs)
	if hits != 5 || misses != 0 {
		t.Errorf("spec hits/misses = %d/%d, want 5/0", hits, misses)
	}
	v, ver := mustRead(t, c, 0)
	if string(v) != "ebcd" || ver != 5 {
		t.Errorf("read %q@%d", v, ver)
	}
}

// TestSpeculativeWriteMissFallsBack: a coordinator whose local replica
// missed earlier writes predicts a stale version; the speculative round
// must degrade to the classified prepare and still produce the correct
// outcome (no lost update, correct version).
func TestSpeculativeWriteMissFallsBack(t *testing.T) {
	opts := fastOptions()
	opts.Obs = obs.New()
	c, err := NewCluster(4, "item", make([]byte, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Node 3 is down during the first write, so its coordinator predicts
	// version 1 while the rest of the cluster is there already: the
	// speculation cannot hit.
	writeWithout(t, c, 0, replica.Update{Offset: 0, Data: []byte("ab")}, 3)
	behind := c.Coordinator(3)
	if _, err := behind.Write(ctxT(t), replica.Update{Offset: 2, Data: []byte("cd")}); err != nil {
		t.Fatal(err)
	}
	_, misses := specCounters(opts.Obs)
	if misses == 0 {
		t.Error("behind coordinator's write did not record a speculation miss")
	}
	v, ver := mustRead(t, c, 0)
	if !bytes.Equal(v, []byte("abcd")) || ver != 2 {
		t.Errorf("read %q@%d, want \"abcd\"@2", v, ver)
	}
}

// TestStaleDecisionQueryVersionGate: a replica that staged a speculative
// update the coordinator never endorsed (its reply was lost) must not
// commit it under a decision that produced a different version — the
// ghost-participant hazard. The resolver's query carries the staged
// version; only an exact match commits.
func TestStaleDecisionQueryVersionGate(t *testing.T) {
	c := newTestCluster(t, 2, make([]byte, 4))
	it := c.Replica(0)
	op := it.NextOp()

	// Simulate a ghost: the coordinator recorded a commit at version 7, a
	// participant staged speculatively expecting version 3.
	it.RecordCommit(op, 7)
	reply, err := it.Handle(ctxT(t), 1, replica.DecisionQuery{Op: op, NewVersion: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dr := reply.(replica.DecisionReply); !dr.Known || dr.Commit {
		t.Errorf("mismatched speculative version resolved as %+v, want known abort", dr)
	}
	// The endorsed participant (or a speculative one at the right version)
	// commits.
	reply, err = it.Handle(ctxT(t), 1, replica.DecisionQuery{Op: op, NewVersion: 7})
	if err != nil {
		t.Fatal(err)
	}
	if dr := reply.(replica.DecisionReply); !dr.Known || !dr.Commit {
		t.Errorf("matching speculative version resolved as %+v, want commit", dr)
	}
	reply, err = it.Handle(ctxT(t), 1, replica.DecisionQuery{Op: op})
	if err != nil {
		t.Fatal(err)
	}
	if dr := reply.(replica.DecisionReply); !dr.Known || !dr.Commit {
		t.Errorf("unversioned query resolved as %+v, want commit", dr)
	}
}

// TestSnapReadSingleRound: reads take the fused lock+snapshot round — one
// message per quorum member, no separate fetch or release traffic.
func TestSnapReadSingleRound(t *testing.T) {
	c := newTestCluster(t, 9, []byte("snap"))
	mustWrite(t, c, 0, replica.Update{Offset: 0, Data: []byte("SNAP")})
	c.Net.ResetStats()
	v, ver := mustRead(t, c, 4)
	if string(v) != "SNAP" || ver != 1 {
		t.Fatalf("read %q@%d", v, ver)
	}
	var total int64
	for _, n := range c.Net.Load() {
		total += n
	}
	// Read quorum on a 3x3 grid is 3 nodes; the fused read sends exactly
	// one ReadSnap per member.
	if total != 3 {
		t.Errorf("fused read sent %d messages, want 3", total)
	}
}
