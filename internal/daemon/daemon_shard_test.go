package daemon

import (
	"context"
	"fmt"
	"testing"
	"time"

	"coterie/internal/capi"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport/tcpnet"
)

// startShardCluster brings up n sharded daemons sharing one address book.
func startShardCluster(t *testing.T, n, shards, rf, maxCoords int) (map[nodeset.ID]string, []*Daemon) {
	t.Helper()
	book := freeAddrs(t, n)
	daemons := make([]*Daemon, 0, n)
	for i := 0; i < n; i++ {
		d, err := Start(Config{
			Self:        nodeset.ID(i),
			Addrs:       book,
			ItemSize:    32,
			CallTimeout: 2 * time.Second,
			Shards:      shards,
			RF:          rf,
			MaxCoords:   maxCoords,
		})
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		daemons = append(daemons, d)
		t.Cleanup(d.Close)
	}
	return book, daemons
}

// TestShardedClusterEndToEnd drives a 4-daemon sharded cluster through the
// smart client: the map bootstraps from a seed, writes and reads route to
// owning coteries, lazy coordinators materialize only where traffic lands,
// and a read through the client observes a write through the client.
func TestShardedClusterEndToEnd(t *testing.T) {
	book, daemons := startShardCluster(t, 4, 8, 3, 0)
	cli := tcpnet.New(book)
	defer cli.Close()
	client, err := capi.NewClient(cli, capi.ClientConfig{
		Self:  nodeset.ID(100),
		Seeds: []nodeset.ID{0, 1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := client.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	m := client.Map()
	if m == nil || m.NumShards() != 8 || m.RF() != 3 {
		t.Fatalf("client map = %+v", m)
	}

	for i := 0; i < 20; i++ {
		item := fmt.Sprintf("key-%d", i)
		wr, err := client.Write(ctx, item, replica.Update{Offset: 1, Data: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("write %s: %v", item, err)
		}
		if wr.Status != capi.StatusOK || wr.Version != 1 {
			t.Fatalf("write %s reply = %+v", item, wr)
		}
		rr, err := client.Read(ctx, item)
		if err != nil {
			t.Fatalf("read %s: %v", item, err)
		}
		if rr.Status != capi.StatusOK || rr.Version != 1 || rr.Value[1] != byte(i) {
			t.Fatalf("read %s reply = %+v", item, rr)
		}
	}

	// Lazy instantiation: only daemons owning a written shard built
	// coordinators, and nobody built more than the touched keys.
	total := 0
	for i, d := range daemons {
		live := d.LiveCoordinators()
		if live > 20 {
			t.Fatalf("daemon %d has %d coordinators for 20 touched keys", i, live)
		}
		total += live
	}
	if total == 0 {
		t.Fatal("no coordinator materialized anywhere")
	}
}

// TestShardedWrongShardAnswer checks the redirect surface directly: an
// operation sent to a daemon that does not own the item's shard must
// answer StatusWrongShard without executing anything.
func TestShardedWrongShardAnswer(t *testing.T) {
	book, daemons := startShardCluster(t, 4, 8, 2, 0)
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	m := daemons[0].Map()
	// Find an item and a daemon outside its coterie (rf=2 of 4 guarantees
	// two outsiders for every shard).
	var item string
	var outsider nodeset.ID
	for i := 0; i < 64 && item == ""; i++ {
		cand := fmt.Sprintf("probe-%d", i)
		members := m.MembersOf(cand)
		for id := nodeset.ID(0); id < 4; id++ {
			if !members.Contains(id) {
				item, outsider = cand, id
				break
			}
		}
	}
	if item == "" {
		t.Fatal("no (item, outsider) pair found")
	}
	rep, err := cli.Call(ctx, nodeset.ID(100), outsider, capi.Read{Item: item})
	if err != nil {
		t.Fatal(err)
	}
	if rr := rep.(capi.ReadReply); rr.Status != capi.StatusWrongShard {
		t.Fatalf("read via outsider = %+v, want StatusWrongShard", rr)
	}
	wrep, err := cli.Call(ctx, nodeset.ID(100), outsider, capi.Write{Item: item, Update: replica.Update{Data: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if wr := wrep.(capi.WriteReply); wr.Status != capi.StatusWrongShard {
		t.Fatalf("write via outsider = %+v, want StatusWrongShard", wr)
	}
	if daemons[outsider].LiveCoordinators() != 0 {
		t.Fatal("wrong-shard refusal materialized a coordinator")
	}
}

// TestShardedMapQuery checks every daemon serves the same map and a legacy
// daemon answers "not sharded".
func TestShardedMapQuery(t *testing.T) {
	book, _ := startShardCluster(t, 3, 4, 2, 0)
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first capi.MapReply
	for i := 0; i < 3; i++ {
		rep, err := cli.Call(ctx, nodeset.ID(100), nodeset.ID(i), capi.MapQuery{})
		if err != nil {
			t.Fatal(err)
		}
		mr := rep.(capi.MapReply)
		if mr.NumShards != 4 || mr.RF != 2 || mr.Version != 1 {
			t.Fatalf("daemon %d map = %+v", i, mr)
		}
		if i == 0 {
			first = mr
		} else if mr.Version != first.Version || mr.NumShards != first.NumShards ||
			mr.RF != first.RF || !mr.Nodes.Equal(first.Nodes) {
			t.Fatalf("daemon %d map %+v differs from daemon 0's %+v", i, mr, first)
		}
	}
}

// TestCoordinatorLRUEviction bounds combiner state: with MaxCoords=8, a
// sweep over many keys must keep the live coordinator table at or under
// the cap, while every operation still succeeds (evicted coordinators
// rebuild on demand; replica stores persist).
func TestCoordinatorLRUEviction(t *testing.T) {
	book, daemons := startShardCluster(t, 3, 4, 3, 8)
	cli := tcpnet.New(book)
	defer cli.Close()
	client, err := capi.NewClient(cli, capi.ClientConfig{Self: nodeset.ID(100), Seeds: []nodeset.ID{0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const keys = 40
	for i := 0; i < keys; i++ {
		item := fmt.Sprintf("evict-%d", i)
		if wr, err := client.Write(ctx, item, replica.Update{Data: []byte{0xaa}}); err != nil || wr.Status != capi.StatusOK {
			t.Fatalf("write %s: %v %+v", item, err, wr)
		}
	}
	for _, d := range daemons {
		if live := d.LiveCoordinators(); live > 8 {
			t.Fatalf("daemon holds %d coordinators, cap is 8", live)
		}
	}
	// Re-read everything: values survive coordinator eviction.
	for i := 0; i < keys; i++ {
		item := fmt.Sprintf("evict-%d", i)
		rr, err := client.Read(ctx, item)
		if err != nil || rr.Status != capi.StatusOK || rr.Version != 1 || rr.Value[0] != 0xaa {
			t.Fatalf("read-back %s: %v %+v", item, err, rr)
		}
	}
}
