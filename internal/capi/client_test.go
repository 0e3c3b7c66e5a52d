package capi

// Fault-injection tests for the smart client, run against scripted daemon
// handlers on the simulated transport: a slow replica (hedged read wins),
// a dead replica (read fails over; write surfaces ErrAmbiguous and is
// never resent), a stale shard map (wrong-shard redirect self-heals), and
// conflict retries. The daemons count write executions so every test can
// assert the safety property the client promises: no write is ever sent
// twice once it may have committed.

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/placement"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// fakeStore is the cluster's shared item state: the fake daemons stand in
// for replicas of one coterie, so a commit through any member is visible
// to reads through any other — replication itself is not under test here.
// conflictsLeft is cluster-wide: the next N write executions abort with
// StatusConflict regardless of which member serves them.
type fakeStore struct {
	mu   sync.Mutex
	vers map[string]uint64
	vals map[string][]byte

	commits       atomic.Int64
	conflictsLeft atomic.Int64
}

// fakeDaemon serves the capi surface for one node: MapQuery from a
// swappable placement map, Read/Write with ownership checks and scripted
// faults. It is deliberately not a real coordinator — the tests probe the
// client's routing, retry, and hedging decisions, not the protocol.
type fakeDaemon struct {
	id    nodeset.ID
	pm    atomic.Pointer[placement.Map]
	net   *transport.Network
	store *fakeStore

	reads, writes atomic.Int64

	readDelay time.Duration // per-read service delay (respects ctx)
	writeErr  atomic.Bool   // Writes answered with a transport-level error
}

func newFakeDaemon(t *testing.T, net *transport.Network, id nodeset.ID, pm *placement.Map, store *fakeStore) *fakeDaemon {
	t.Helper()
	d := &fakeDaemon{id: id, net: net, store: store}
	d.pm.Store(pm)
	net.Register(id, d.handle)
	return d
}

func (d *fakeDaemon) owns(item string) bool {
	return d.pm.Load().MembersOf(item).Contains(d.id)
}

func (d *fakeDaemon) handle(ctx context.Context, _ nodeset.ID, req transport.Message) (transport.Message, error) {
	switch m := req.(type) {
	case MapQuery:
		pm := d.pm.Load()
		return MapReply{Version: pm.Version(), NumShards: uint32(pm.NumShards()), RF: uint32(pm.RF()), Nodes: pm.Nodes()}, nil
	case Read:
		d.reads.Add(1)
		if !d.owns(m.Item) {
			return ReadReply{Status: StatusWrongShard}, nil
		}
		if d.readDelay > 0 {
			select {
			case <-time.After(d.readDelay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		st := d.store
		st.mu.Lock()
		defer st.mu.Unlock()
		return ReadReply{Status: StatusOK, Version: st.vers[m.Item], Value: append([]byte(nil), st.vals[m.Item]...)}, nil
	case Write:
		d.writes.Add(1)
		if !d.owns(m.Item) {
			return WriteReply{Status: StatusWrongShard}, nil
		}
		if d.writeErr.Load() {
			return nil, errors.New("injected daemon failure")
		}
		st := d.store
		if st.conflictsLeft.Add(-1) >= 0 {
			return WriteReply{Status: StatusConflict}, nil
		}
		st.commits.Add(1)
		st.mu.Lock()
		defer st.mu.Unlock()
		st.vers[m.Item]++
		grown := m.Update.Offset + len(m.Update.Data)
		if v := st.vals[m.Item]; grown > len(v) {
			nv := make([]byte, grown)
			copy(nv, v)
			st.vals[m.Item] = nv
		}
		copy(st.vals[m.Item][m.Update.Offset:], m.Update.Data)
		return WriteReply{Status: StatusOK, Version: st.vers[m.Item]}, nil
	case CheckEpoch:
		if !d.owns(m.Item) {
			return CheckReply{Status: StatusWrongShard}, nil
		}
		return CheckReply{Status: StatusOK}, nil
	default:
		return nil, errors.New("fakeDaemon: unexpected message")
	}
}

// cluster spins up daemons 1..n sharing one placement map and one store,
// and returns a client registered as node n+1.
func cluster(t *testing.T, n, shards, rf int, cfg ClientConfig) (*transport.Network, []*fakeDaemon, *Client) {
	t.Helper()
	net := transport.NewNetwork()
	ids := make([]nodeset.ID, n)
	for i := range ids {
		ids[i] = nodeset.ID(i + 1)
	}
	pm, err := placement.New(nodeset.FromIDs(ids), shards, rf, 1)
	if err != nil {
		t.Fatalf("placement.New: %v", err)
	}
	store := &fakeStore{vers: map[string]uint64{}, vals: map[string][]byte{}}
	daemons := make([]*fakeDaemon, n)
	for i, id := range ids {
		daemons[i] = newFakeDaemon(t, net, id, pm, store)
	}
	cfg.Self = nodeset.ID(n + 1)
	cfg.Seeds = ids
	net.Register(cfg.Self, func(context.Context, nodeset.ID, transport.Message) (transport.Message, error) {
		return nil, errors.New("client serves nothing")
	})
	c, err := NewClient(net, cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := c.Refresh(context.Background()); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	return net, daemons, c
}

// affineFor picks an item whose write-affine member (attempt 0) is the
// wanted daemon, so a test can aim faults at exactly the member the client
// will contact first.
func affineFor(t *testing.T, c *Client, want nodeset.ID) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		item := "it" + strconv.Itoa(i)
		members := c.Map().MembersOf(item).IDs()
		if len(members) > 1 && members[itemAffinity(item)%len(members)] == want {
			return item
		}
	}
	t.Fatal("no item with wanted affinity found")
	return ""
}

func totalCommits(daemons []*fakeDaemon) int64 {
	return daemons[0].store.commits.Load()
}

// A read whose affine member is pathologically slow must be rescued by the
// hedge: the alternate member answers, the hedge wins, and latency stays
// far below the slow member's service time.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	_, daemons, c := cluster(t, 3, 1, 3, ClientConfig{
		Hedge:    true,
		HedgeMin: time.Millisecond,
		HedgeMax: 5 * time.Millisecond, // cold-start hedge delay
	})
	item := affineFor(t, c, daemons[0].id)
	daemons[0].readDelay = 500 * time.Millisecond

	if _, err := c.Write(context.Background(), item, replica.Update{Data: []byte("v")}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	start := time.Now()
	reply, err := c.Read(context.Background(), item)
	elapsed := time.Since(start)
	if err != nil || reply.Status != StatusOK {
		t.Fatalf("read: err=%v status=%v", err, reply.Status)
	}
	if string(reply.Value) != "v" {
		t.Fatalf("read value %q, want %q", reply.Value, "v")
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("hedged read took %v; hedge did not rescue the slow primary", elapsed)
	}
	st := c.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("stats %+v: expected at least one hedge and one hedge win", st)
	}
}

// A dead affine member must not sink reads: the transport error is retried
// against the next member and the read succeeds.
func TestReadFailsOverDeadReplica(t *testing.T) {
	net, daemons, c := cluster(t, 3, 1, 3, ClientConfig{})
	item := affineFor(t, c, daemons[1].id)
	if _, err := c.Write(context.Background(), item, replica.Update{Data: []byte("x")}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	net.Crash(daemons[1].id)
	reply, err := c.Read(context.Background(), item)
	if err != nil || reply.Status != StatusOK {
		t.Fatalf("read after crash: err=%v status=%v", err, reply.Status)
	}
	if c.Stats().Retries == 0 {
		t.Fatal("expected the dead-replica read attempt to count as a retry")
	}
}

// An epoch check with one shard member down must reach a live member by
// its second attempt: the attempts walk the members from one random start.
// Drawing a fresh random member per attempt sent about one call in nine to
// the dead member twice or more, and one in 243 to it five times running.
func TestCheckEpochWalksPastDeadMember(t *testing.T) {
	net, daemons, c := cluster(t, 3, 1, 3, ClientConfig{BackoffBase: 100 * time.Microsecond})
	net.Crash(daemons[1].id)
	for i := 0; i < 200; i++ {
		before := net.Stats().Calls
		reply, err := c.CheckEpoch(context.Background(), "item")
		if err != nil || reply.Status != StatusOK {
			t.Fatalf("call %d: err=%v status=%v", i, err, reply.Status)
		}
		if attempts := net.Stats().Calls - before; attempts > 2 {
			t.Fatalf("call %d took %d attempts with one of three members down, want at most 2", i, attempts)
		}
	}
}

// A write whose RPC fails is ambiguous: the client must surface
// ErrAmbiguous immediately and must NOT resend it — exactly one write
// attempt reaches the cluster.
func TestAmbiguousWriteNotResent(t *testing.T) {
	_, daemons, c := cluster(t, 3, 1, 3, ClientConfig{})
	item := affineFor(t, c, daemons[0].id)
	daemons[0].writeErr.Store(true)

	_, err := c.Write(context.Background(), item, replica.Update{Data: []byte("once")})
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("write error %v, want ErrAmbiguous", err)
	}
	var attempts int64
	for _, d := range daemons {
		attempts += d.writes.Load()
	}
	if attempts != 1 {
		t.Fatalf("cluster saw %d write attempts, want exactly 1 (no resend of an ambiguous write)", attempts)
	}
	if got := totalCommits(daemons); got != 0 {
		t.Fatalf("%d commits recorded for a failed write", got)
	}
}

// Clean conflict aborts are the one write disposition that is retried —
// and the retries stop at the first commit, so the cluster commits the
// write exactly once.
func TestConflictedWriteRetriesUntilSingleCommit(t *testing.T) {
	_, daemons, c := cluster(t, 3, 1, 3, ClientConfig{
		BackoffBase: 100 * time.Microsecond,
		BackoffMax:  time.Millisecond,
	})
	item := affineFor(t, c, daemons[0].id)
	daemons[0].store.conflictsLeft.Store(2) // next two write executions abort
	reply, err := c.Write(context.Background(), item, replica.Update{Data: []byte("w")})
	if err != nil || reply.Status != StatusOK {
		t.Fatalf("write: err=%v status=%v", err, reply.Status)
	}
	if got := totalCommits(daemons); got != 1 {
		t.Fatalf("cluster committed %d times, want exactly 1", got)
	}
	if c.Stats().Retries < 2 {
		t.Fatalf("stats %+v: expected at least 2 conflict retries", c.Stats())
	}
}

// When the cluster moves to a new shard map behind the client's back, the
// daemons refuse with StatusWrongShard; the client must refresh its map,
// re-route, and commit the write exactly once.
func TestStaleMapRedirectSelfHeals(t *testing.T) {
	net, daemons, c := cluster(t, 4, 8, 2, ClientConfig{})
	_ = net

	// Move every daemon to shard-map v2 with one fewer node: shards
	// reshuffle, the client's cached v1 routes some items to non-owners.
	survivors := nodeset.New(daemons[0].id, daemons[1].id, daemons[2].id)
	pm2, err := placement.New(survivors, 8, 2, 2)
	if err != nil {
		t.Fatalf("placement.New v2: %v", err)
	}
	for _, d := range daemons {
		d.pm.Store(pm2)
	}

	// Find an item whose v1 affine target does not own it under v2.
	v1 := c.Map()
	var item string
	for i := 0; i < 10000; i++ {
		cand := "mv" + strconv.Itoa(i)
		m1 := v1.MembersOf(cand).IDs()
		target := m1[itemAffinity(cand)%len(m1)]
		if !pm2.MembersOf(cand).Contains(target) {
			item = cand
			break
		}
	}
	if item == "" {
		t.Fatal("no relocated item found")
	}

	reply, err := c.Write(context.Background(), item, replica.Update{Data: []byte("moved")})
	if err != nil || reply.Status != StatusOK {
		t.Fatalf("write after reshard: err=%v status=%v", err, reply.Status)
	}
	if got := totalCommits(daemons); got != 1 {
		t.Fatalf("cluster committed %d times, want exactly 1", got)
	}
	st := c.Stats()
	if st.WrongShard == 0 {
		t.Fatalf("stats %+v: expected a wrong-shard redirect", st)
	}
	if got := c.Map().Version(); got != 2 {
		t.Fatalf("client map version %d after redirect, want 2", got)
	}
	// The relocated item must now be readable through the new map.
	r, err := c.Read(context.Background(), item)
	if err != nil || r.Status != StatusOK || string(r.Value) != "moved" {
		t.Fatalf("read after redirect: err=%v status=%v value=%q", err, r.Status, r.Value)
	}
}

// TestEmptyMapIsRefused: a MapReply is input from outside the process, and
// one with no shards is no map. Refresh refuses it and keeps no map, and
// names the reason.
func TestEmptyMapIsRefused(t *testing.T) {
	net := transport.NewNetwork()
	net.Register(0, func(context.Context, nodeset.ID, transport.Message) (transport.Message, error) {
		return MapReply{Version: 1, Nodes: nodeset.New(0)}, nil
	})
	net.Register(100, func(context.Context, nodeset.ID, transport.Message) (transport.Message, error) {
		return nil, errors.New("client endpoint serves nothing")
	})
	c, err := NewClient(net, ClientConfig{Self: 100, Seeds: []nodeset.ID{0}})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Refresh(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no shards") {
		t.Fatalf("Refresh of a zero-shard map: %v", err)
	}
	if c.Map() != nil {
		t.Fatalf("client kept the zero-shard map %+v", c.Map())
	}
}
