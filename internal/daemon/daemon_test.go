package daemon

import (
	"context"
	"net"
	"testing"
	"time"

	"coterie/internal/capi"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
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

// startCluster brings up n daemons sharing one address book, all in this
// process — the same wiring cmd/coteried does per process.
func startCluster(t *testing.T, n int) (map[nodeset.ID]string, []*Daemon) {
	t.Helper()
	book := freeAddrs(t, n)
	daemons := make([]*Daemon, 0, n)
	for i := 0; i < n; i++ {
		d, err := Start(Config{
			Self:        nodeset.ID(i),
			Addrs:       book,
			Items:       ItemNames(2),
			ItemSize:    32,
			CallTimeout: 2 * time.Second,
		})
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
// and the unknown-item error path.
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

	erep, err := cli.Call(ctx, clientID, 0, capi.Read{Item: "no-such-item"})
	if err != nil {
		t.Fatal(err)
	}
	if er := erep.(capi.ReadReply); er.Status != capi.StatusError {
		t.Fatalf("unknown-item reply = %+v", er)
	}
}

// TestDaemonRecoveringStartsQuarantined verifies the restart path: a
// daemon started with Recovering answers but is excluded from quorums
// until an epoch check readmits it, and its rebuilt value is the full
// committed value, not a truncation (the amnesia replay-base fix).
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
	d2, err := Start(Config{
		Self:        2,
		Addrs:       book,
		Items:       ItemNames(2),
		ItemSize:    32,
		CallTimeout: 2 * time.Second,
		Recovering:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Item("item-0").Recovering() {
		t.Fatal("restarted daemon not in recovering state")
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

// TestZeroConfigKeepsConnections: a Config that names only what a daemon
// cannot guess must still get the transport's one call mode — pooled,
// multiplexed connections — so a hundred calls to a peer dial at most a
// pool's worth of sockets, not a hundred.
func TestZeroConfigKeepsConnections(t *testing.T) {
	book := freeAddrs(t, 2)
	daemons := make([]*Daemon, 2)
	for i := range daemons {
		d, err := Start(Config{Self: nodeset.ID(i), Addrs: book, Items: ItemNames(1), Obs: true})
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
