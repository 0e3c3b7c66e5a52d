package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// msgTally counts the protocol messages delivered to each node by type,
// and the length of the run each PrepareUpdate carried.
type msgTally struct {
	mu   sync.Mutex
	n    map[nodeset.ID]map[string]int
	runs map[nodeset.ID][]int
}

// tallyMessages re-registers every node of c behind a counting handler.
func tallyMessages(c *Cluster) *msgTally {
	tally := &msgTally{n: make(map[nodeset.ID]map[string]int), runs: make(map[nodeset.ID][]int)}
	for _, id := range c.Members.IDs() {
		id, inner := id, c.Node(id).Handler()
		tally.n[id] = make(map[string]int)
		c.Net.Register(id, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
			if env, ok := req.(replica.Envelope); ok {
				tally.mu.Lock()
				tally.n[id][fmt.Sprintf("%T", env.Msg)]++
				if p, ok := env.Msg.(replica.PrepareUpdate); ok {
					tally.runs[id] = append(tally.runs[id], 1+len(p.More))
				}
				tally.mu.Unlock()
			}
			return inner(ctx, from, req)
		})
	}
	return tally
}

// at returns how many messages of the named type node id was delivered.
func (m *msgTally) at(id nodeset.ID, typ string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n[id][typ]
}

// total sums at over every node.
func (m *msgTally) total(typ string) int {
	sum := 0
	for id := range m.n {
		sum += m.at(id, typ)
	}
	return sum
}

// The two hot rounds send their requests from the coordinator's rounds
// scratch, as pointers.
const (
	msgLockPrepare = "*replica.LockPrepare"
	msgLockRequest = "replica.LockRequest"
	msgReadSnap    = "*replica.ReadSnap"
	msgApplyDirect = "replica.ApplyDirect"
	msgPrepare     = "replica.PrepareUpdate"
	msgCommit      = "replica.Commit"
)

// newBatch returns a cut of k writers for Coordinator.executeBatch, writer i
// writing byte data+i at offset i.
func newBatch(k int, data byte) []*pendingWrite {
	batch := make([]*pendingWrite, k)
	for i := range batch {
		batch[i] = &pendingWrite{u: replica.Update{Offset: i, Data: []byte{data + byte(i)}}, done: make(chan struct{}, 1)}
	}
	return batch
}

// TestGroupCommitIsOneWrite: a cut of K writers is one write carrying a
// run. It sends one LockRequest to each member of one write quorum and one
// PrepareUpdate carrying all K updates to each good member, and it commits
// as a single write does, one-way: the sim network counts two messages per
// call, so what it delivered beyond that is exactly the remote commits and
// the write-through pushes.
func TestGroupCommitIsOneWrite(t *testing.T) {
	c, err := NewCluster(9, "item", make([]byte, 16), batchOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tally := tallyMessages(c)
	const K, coord = 6, nodeset.ID(0)

	c.Net.ResetStats()
	batch := newBatch(K, 'a')
	c.Coordinator(coord).executeBatch(batch)
	for i, pw := range batch {
		<-pw.done
		if pw.err != nil || pw.version != uint64(i+1) {
			t.Fatalf("writer %d: version %d, %v; want version %d", i, pw.version, pw.err, i+1)
		}
	}
	stats := c.Net.Stats()

	var quorum nodeset.Set
	remoteCommits := 0
	for _, id := range c.Members.IDs() {
		locks, commits := tally.at(id, msgLockRequest), tally.at(id, msgCommit)
		switch locks {
		case 0:
			if n := tally.at(id, msgPrepare) + commits; n != 0 {
				t.Errorf("node %v outside the quorum got %d prepares and commits", id, n)
			}
			continue
		case 1:
			quorum.Add(id)
		default:
			t.Errorf("node %v got %d LockRequest, want at most one", id, locks)
		}
		tally.mu.Lock()
		runs := tally.runs[id]
		tally.mu.Unlock()
		if len(runs) != 1 || runs[0] != K {
			t.Errorf("node %v: PrepareUpdate runs %v, want one of %d updates", id, runs, K)
		}
		if commits != 1 {
			t.Errorf("node %v got %d Commit, want one", id, commits)
		}
		if id != coord {
			remoteCommits += commits
		}
	}
	if quorum.Len() != 5 {
		t.Fatalf("lock round reached %v, want a 5-member write quorum of the 3×3 grid", quorum)
	}
	if n := tally.total("replica.PrepareStale") + tally.total(msgLockPrepare); n != 0 {
		t.Errorf("%d stale-marking or speculative prepares on a current cluster", n)
	}
	pushes := tally.total(msgApplyDirect)
	if pushes != 9-quorum.Len() {
		t.Errorf("%d write-through pushes, want one to each of the %d bystanders", pushes, 9-quorum.Len())
	}
	if oneWay := stats.Messages - 2*stats.Calls; oneWay != int64(remoteCommits+pushes) {
		t.Errorf("%d messages for %d calls: %d sent one-way, want the %d remote commits and %d pushes",
			stats.Messages, stats.Calls, oneWay, remoteCommits, pushes)
	}
}

// TestThreeMemberGridWriteLocksTwo is what minimal quorums mean to the
// protocol on the 2×2−1 grid an rf 3 shard gets (column 1 = {0,2}, column 2
// = {1}): a committed write sends LockPrepare to exactly two replicas — the
// one-member column's node 1, the pivot, and one of the other two — and one
// write-through ApplyDirect to the third; nothing takes the two-round or the
// heavy path; and the mean quorum size the coordinators report is 2 for
// reads and writes. The per-replica shares of the two lock-bearing messages
// are logged: EXPERIMENTS.md records them before and after.
func TestThreeMemberGridWriteLocksTwo(t *testing.T) {
	c, reg := obsTestCluster(t, 3)
	tally := tallyMessages(c)
	const pivot = nodeset.ID(1)
	const perCoordinator = 100

	writes := 0
	for i := 0; i < perCoordinator; i++ {
		for _, from := range c.Members.IDs() {
			prepares, pushes := tally.total(msgLockPrepare), tally.total(msgApplyDirect)
			atPivot := tally.at(pivot, msgLockPrepare)
			mustWrite(t, c, from, replica.Update{Data: []byte{byte(i)}})
			writes++
			if got := tally.total(msgLockPrepare) - prepares; got != 2 {
				t.Fatalf("write %d from %v: %d LockPrepare, want 2", i, from, got)
			}
			if got := tally.at(pivot, msgLockPrepare) - atPivot; got != 1 {
				t.Fatalf("write %d from %v: pivot got %d LockPrepare, want 1", i, from, got)
			}
			if got := tally.total(msgApplyDirect) - pushes; got != 1 {
				t.Fatalf("write %d from %v: %d ApplyDirect, want 1", i, from, got)
			}
			if _, version := mustRead(t, c, from); version != uint64(writes) {
				t.Fatalf("read after write %d from %v: version %d", writes, from, version)
			}
		}
	}

	count := func(name string) uint64 { return reg.Counter(name).Load() }
	if hits := count("core_spec_prepare_hit_total"); hits != uint64(writes) {
		t.Errorf("spec hits = %d of %d writes (misses %d)", hits, writes, count("core_spec_prepare_miss_total"))
	}
	if heavy, locks := count("core_heavy_procedures_total"), tally.total(msgLockRequest); heavy != 0 || locks != 0 {
		t.Errorf("heavy procedures = %d, LockRequest messages = %d, want none", heavy, locks)
	}
	if snaps := tally.total(msgReadSnap); snaps != 2*writes {
		t.Errorf("%d ReadSnap for %d reads, want two each", snaps, writes)
	}
	rounds, members := reg.CounterVec("core_quorum_rounds_total").Values(), reg.CounterVec("core_quorum_members_total").Values()
	for kind, name := range []string{"read", "write"} {
		if rounds[kind] != uint64(writes) || members[kind] != 2*rounds[kind] {
			t.Errorf("%s quorums: %d members over %d rounds, want 2 each over %d", name, members[kind], rounds[kind], writes)
		}
	}
	for _, id := range c.Members.IDs() {
		t.Logf("node %v: LockPrepare %.3f of writes, ReadSnap %.3f of reads, ApplyDirect %.3f of writes", id,
			float64(tally.at(id, msgLockPrepare))/float64(writes),
			float64(tally.at(id, msgReadSnap))/float64(writes),
			float64(tally.at(id, msgApplyDirect))/float64(writes))
	}
	// Each coordinator prefers a quorum it is in, so a non-pivot member is
	// locked by its own writes and its share of the pivot's.
	for _, id := range []nodeset.ID{0, 2} {
		if got := tally.at(id, msgLockPrepare); got < perCoordinator || got > 2*perCoordinator {
			t.Errorf("node %v got %d LockPrepare of %d writes, want between a third and two thirds", id, got, writes)
		}
	}
}

// TestThreeMemberGridSurvivesEitherNonPivot: with either member of the
// two-high column down, writes and reads still go through — the other one
// completes the quorum — and with the pivot down nothing does: the
// one-member column is in every quorum of this grid (bench Finding 5).
func TestThreeMemberGridSurvivesEitherNonPivot(t *testing.T) {
	const pivot = nodeset.ID(1)
	for _, down := range []nodeset.ID{0, 2} {
		c := newTestCluster(t, 3, nil)
		c.Crash(down)
		other := nodeset.ID(2 - down)
		for _, from := range []nodeset.ID{pivot, other} {
			mustWrite(t, c, from, replica.Update{Data: []byte("x")})
			mustRead(t, c, from)
		}
		for _, id := range []nodeset.ID{pivot, other} {
			if v := c.Replica(id).State().Version; v != 2 {
				t.Errorf("node %v down: replica %v at version %d, want 2", down, id, v)
			}
		}
	}
	c := newTestCluster(t, 3, nil)
	c.Crash(pivot)
	if _, err := c.Coordinator(0).Write(ctxT(t), replica.Update{Data: []byte("x")}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("write with the pivot down: %v, want ErrUnavailable", err)
	}
	if _, _, err := c.Coordinator(2).Read(ctxT(t)); !errors.Is(err, ErrUnavailable) {
		t.Errorf("read with the pivot down: %v, want ErrUnavailable", err)
	}
}
