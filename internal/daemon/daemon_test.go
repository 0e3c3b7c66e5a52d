package daemon

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/capi"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/transport/tcpnet"
)

func freeAddrs(t *testing.T, n int) map[nodeset.ID]string {
	t.Helper()
	addrs := make(map[nodeset.ID]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[nodeset.ID(i)] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// oneShard is the configuration of daemon self of an n-node cluster that
// replicates every item on every node: a one-shard map whose RF is n.
func oneShard(book map[nodeset.ID]string, self nodeset.ID, recovering bool) Config {
	return Config{
		Self:        self,
		Addrs:       book,
		ItemSize:    32,
		CallTimeout: 2 * time.Second,
		Shards:      1,
		RF:          len(book),
		Recovering:  recovering,
	}
}

// startCluster brings up n one-shard daemons sharing one address book, all
// in this process — the same wiring cmd/coteried does per process.
func startCluster(t *testing.T, n int) (map[nodeset.ID]string, []*Daemon) {
	t.Helper()
	book := freeAddrs(t, n)
	daemons := make([]*Daemon, 0, n)
	for i := 0; i < n; i++ {
		d, err := Start(oneShard(book, nodeset.ID(i), false))
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		daemons = append(daemons, d)
		t.Cleanup(d.Close)
	}
	return book, daemons
}

// TestDaemonClusterServesClientAPI drives a 3-daemon cluster through the
// capi surface from an external tcpnet client: a partial write via one
// daemon, the read observing it via another, an epoch check via a third,
// and a read of an item nobody wrote, which is its zero value at version 0.
func TestDaemonClusterServesClientAPI(t *testing.T) {
	book, _ := startCluster(t, 3)
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const clientID = nodeset.ID(100)

	wrep, err := cli.Call(ctx, clientID, 0, capi.Write{
		Item:   "item-0",
		Update: replica.Update{Offset: 3, Data: []byte("net")},
	})
	if err != nil {
		t.Fatal(err)
	}
	wr := wrep.(capi.WriteReply)
	if wr.Status != capi.StatusOK || wr.Version != 1 {
		t.Fatalf("write reply = %+v", wr)
	}

	rrep, err := cli.Call(ctx, clientID, 1, capi.Read{Item: "item-0"})
	if err != nil {
		t.Fatal(err)
	}
	rr := rrep.(capi.ReadReply)
	want := make([]byte, 32)
	copy(want[3:], "net")
	if rr.Status != capi.StatusOK || rr.Version != 1 || string(rr.Value) != string(want) {
		t.Fatalf("read reply = %+v", rr)
	}

	crep, err := cli.Call(ctx, clientID, 2, capi.CheckEpoch{Item: "item-1"})
	if err != nil {
		t.Fatal(err)
	}
	if cr := crep.(capi.CheckReply); cr.Status != capi.StatusOK {
		t.Fatalf("check reply = %+v", cr)
	}

	frep, err := cli.Call(ctx, clientID, 0, capi.Read{Item: "never-written"})
	if err != nil {
		t.Fatal(err)
	}
	if fr := frep.(capi.ReadReply); fr.Status != capi.StatusOK || fr.Version != 0 || string(fr.Value) != string(make([]byte, 32)) {
		t.Fatalf("fresh-item reply = %+v", fr)
	}
}

// TestDaemonRecoveringStartsQuarantined verifies the restart path: a
// daemon started with Recovering makes each replica on its first touch —
// here a peer's state query — already quarantined: it answers as
// recovering, and so is excluded from quorums, until an epoch check
// readmits it, and its rebuilt value is the full committed value, not a
// truncation (the amnesia replay-base fix).
func TestDaemonRecoveringStartsQuarantined(t *testing.T) {
	book, daemons := startCluster(t, 3)
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const clientID = nodeset.ID(100)

	if _, err := cli.Call(ctx, clientID, 0, capi.Write{
		Item:   "item-0",
		Update: replica.Update{Offset: 5, Data: []byte("xy")},
	}); err != nil {
		t.Fatal(err)
	}

	// Replace daemon 2 with a recovering incarnation at the same address,
	// as loadgen's churn respawn does across processes.
	daemons[2].Close()
	d2, err := Start(oneShard(book, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Item("item-0") != nil {
		t.Fatal("restarted daemon made a replica before anything touched it")
	}
	// Daemon 0's connections to the old incarnation died with it: the
	// first calls may fail before it dials the new one.
	var srep transport.Message
	for {
		if srep, err = daemons[0].Net.Call(ctx, 0, 2, replica.Envelope{Item: "item-0", Msg: replica.StateQuery{}}); err == nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, ok := stateOf(srep)
	if !ok {
		t.Fatalf("state query answered %T", srep)
	}
	if !st.Recovering || d2.Item("item-0") == nil || !d2.Item("item-0").Recovering() {
		t.Fatalf("replica made by a peer's query is not recovering: %+v", st)
	}

	crep, err := cli.Call(ctx, clientID, 0, capi.CheckEpoch{Item: "item-0"})
	if err != nil {
		t.Fatal(err)
	}
	if cr := crep.(capi.CheckReply); cr.Status != capi.StatusOK {
		t.Fatalf("epoch check = %+v", cr)
	}
	if d2.Item("item-0").Recovering() {
		t.Fatal("epoch check did not readmit the recovering replica")
	}

	// Propagation rebuilds the full-size value on the readmitted replica.
	want := make([]byte, 32)
	copy(want[5:], "xy")
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d2.Item("item-0").State()
		if !st.Stale && st.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never rebuilt: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := d2.Item("item-0").Value(); string(v) != string(want) {
		t.Fatalf("rebuilt value = %q, want %q", v, want)
	}
}

// stateOf unwraps a state query's reply, which may arrive by value or by
// pointer.
func stateOf(m transport.Message) (replica.StateReply, bool) {
	switch r := m.(type) {
	case replica.StateReply:
		return r, true
	case *replica.StateReply:
		return *r, true
	}
	return replica.StateReply{}, false
}

// TestRecoveringFirstTouchRace: on a restarted daemon a replica is made by
// whichever comes first, a peer's message or the daemon's own coordinator,
// and the other may ask for it at once. A peer's state query and a client
// write race on each of 32 fresh items; no reply may show a replica that is
// neither recovering nor readmitted by an epoch change (epoch 0), since a
// quorum would count that amnesiac version-0 replica as current.
func TestRecoveringFirstTouchRace(t *testing.T) {
	book, daemons := startCluster(t, 3)
	daemons[2].Close()
	d2, err := Start(oneShard(book, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	query := func(item string) (transport.Message, error) {
		return daemons[0].Net.Call(ctx, 0, 2, replica.Envelope{Item: item, Msg: replica.StateQuery{}})
	}
	// Daemon 0's connections to the old incarnation died with it, and the
	// client has none yet: warm both, so neither side of the race dials.
	for {
		_, err := query("warm-up")
		if err == nil {
			_, err = cli.Call(ctx, 100, 2, capi.CheckEpoch{Item: "warm-up"})
		}
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		item := fmt.Sprintf("race-%d", i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Whether the write commits does not matter here.
			cli.Call(ctx, 100, 2, capi.Write{Item: item, Update: replica.Update{Data: []byte("w")}})
		}()
		go func() {
			defer wg.Done()
			reply, err := query(item)
			if err != nil {
				t.Errorf("%s: state query: %v", item, err)
				return
			}
			if st, ok := stateOf(reply); !ok {
				t.Errorf("%s: state query answered %T", item, reply)
			} else if !st.Recovering && st.EpochNum == 0 {
				t.Errorf("%s: a restarted daemon's replica answered as current before readmission: %+v", item, st)
			}
		}()
	}
	wg.Wait()
}

// TestZeroConfigKeepsConnections: a Config that names only what a daemon
// cannot guess must still get the transport's one call mode — pooled,
// multiplexed connections — so a hundred calls to a peer dial at most a
// pool's worth of sockets, not a hundred. It also gets the one-shard map:
// both nodes own every item.
func TestZeroConfigKeepsConnections(t *testing.T) {
	book := freeAddrs(t, 2)
	daemons := make([]*Daemon, 2)
	for i := range daemons {
		d, err := Start(Config{Self: nodeset.ID(i), Addrs: book, Obs: true})
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		t.Cleanup(d.Close)
		daemons[i] = d
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		reply, err := daemons[0].Net.Call(ctx, 0, 1, capi.Read{Item: "item-0"})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if rr := reply.(capi.ReadReply); rr.Status != capi.StatusOK {
			t.Fatalf("call %d: reply %+v", i, rr)
		}
	}
	const poolSize = 2 // tcpnet's default connections per peer
	if dials := daemons[0].Reg.Counter("tcp_dials_total").Load(); dials == 0 || dials > poolSize {
		t.Errorf("100 calls to one peer dialed %d times, want 1..%d", dials, poolSize)
	}
}
