package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"coterie/internal/core"
	"coterie/internal/coterie"
	"coterie/internal/markov"
	"coterie/internal/nodeset"
	"coterie/internal/onecopy"
	"coterie/internal/placement"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/transport/tcpnet"
	"coterie/internal/wire"
	"coterie/internal/workload"
)

// The isolated drives call one layer's public functions directly from a
// single goroutine, a fixed number of times per batch, and report the
// median of driveBatches batches. They share nothing with the workloads;
// their place is in the budget: a layer that gets faster here can save an
// operation at most this much.

const driveBatches = 5

// driveDivisor shortens every drive; only the smoke test sets it.
var driveDivisor = 1

// sink keeps results alive so the compiler cannot drop the driven call.
var sink any

// perIter runs fn iters times per batch and returns the median batch's
// nanoseconds per call.
func perIter(iters int, fn func(i int)) float64 {
	iters = max(iters/driveDivisor, 1)
	batches := make([]float64, driveBatches)
	n := 0
	for b := range batches {
		began := time.Now()
		for i := 0; i < iters; i++ {
			fn(n)
			n++
		}
		batches[b] = float64(time.Since(began)) / float64(iters)
	}
	return median(batches)
}

// isolatedDrives runs every drive and returns the layer metrics by name.
func isolatedDrives() (map[string]float64, error) {
	m := map[string]float64{}
	for _, drive := range []func(map[string]float64) error{
		driveWire, driveTCPNet, driveTransport, driveCoterie, driveReplica,
		driveCore, drivePlacement, driveOnecopy, driveWorkload, driveMarkov,
	} {
		if err := drive(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func driveWire(m map[string]float64) error {
	lock := replica.Envelope{Item: "item-0", Msg: replica.LockPrepare{
		Op: replica.OpID{Coordinator: 3, Seq: 1 << 20}, Update: replica.Update{Offset: 100, Data: make([]byte, 16)},
		NewVersion: 1 << 16, GoodSet: nodeset.New(0, 3, 4, 5, 6),
	}}
	snap := replica.SnapReply{
		State: replica.StateReply{Node: 3, Version: 1 << 16, Epoch: nodeset.Range(0, 9), EpochNum: 7, Good: nodeset.New(0, 3, 4, 5, 6), GoodVer: 1 << 16},
		Value: make([]byte, 1024),
	}
	for _, c := range []struct {
		name string
		msg  any
	}{{"lockprepare", lock}, {"snapreply_1k", snap}} {
		enc, err := wire.Marshal(c.msg)
		if err != nil {
			return fmt.Errorf("wire drive: %w", err)
		}
		if _, err := wire.Unmarshal(enc); err != nil {
			return fmt.Errorf("wire drive: %w", err)
		}
		buf := make([]byte, 0, 2*len(enc))
		m["wire.encode_"+c.name+"_ns"] = perIter(50000, func(int) { sink, _ = wire.AppendMarshal(buf[:0], c.msg) })
		m["wire.decode_"+c.name+"_ns"] = perIter(50000, func(int) { sink, _ = wire.Unmarshal(enc) })
		if c.name == "lockprepare" {
			m["wire.lockprepare_bytes"] = float64(len(enc))
		}
	}
	return nil
}

// driveTCPNet echoes a state query between two Networks on loopback.
func driveTCPNet(m map[string]float64) error {
	book := map[nodeset.ID]string{}
	for id := nodeset.ID(0); id < 2; id++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		book[id] = l.Addr().String()
		l.Close()
	}
	server, caller := tcpnet.New(book), tcpnet.New(book)
	defer server.Close()
	defer caller.Close()
	reply := replica.StateReply{Node: 1, Version: 42, Epoch: nodeset.Range(0, 9), EpochNum: 7}
	server.Register(1, func(context.Context, nodeset.ID, transport.Message) (transport.Message, error) { return reply, nil })
	if err := server.Start(); err != nil {
		return err
	}
	ctx := context.Background()
	req := replica.Envelope{Item: "item-0", Msg: replica.StateQuery{}}
	if _, err := caller.Call(ctx, 0, 1, req); err != nil {
		return fmt.Errorf("tcpnet echo: %w", err)
	}
	m["tcpnet.echo_rtt_us"] = perIter(2000, func(int) { sink, _ = caller.Call(ctx, 0, 1, req) }) / 1e3

	const inflight = 64
	calls := max(300/driveDivisor, 1)
	batches := make([]float64, driveBatches)
	for b := range batches {
		began := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < inflight; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					_, _ = caller.Call(ctx, 0, 1, req) // a failed echo only lowers the rate
				}
			}()
		}
		wg.Wait()
		batches[b] = float64(inflight*calls) / time.Since(began).Seconds() / 1e3
	}
	m["tcpnet.echo_inflight64_kops"] = median(batches)
	return nil
}

func driveTransport(m map[string]float64) error {
	netw := transport.NewNetwork()
	for id := nodeset.ID(0); id < 6; id++ {
		netw.Register(id, func(_ context.Context, _ nodeset.ID, req transport.Message) (transport.Message, error) {
			return req, nil
		})
	}
	ctx := context.Background()
	m["transport.sim_call_ns"] = perIter(200000, func(i int) { sink, _ = netw.Call(ctx, 0, 1, i) })
	targets := nodeset.Range(1, 6)
	m["transport.sim_multicast5_ns"] = perIter(20000, func(i int) {
		netw.MulticastFunc(ctx, 0, targets, i, func(nodeset.ID, transport.Result) {})
	})
	return nil
}

func driveCoterie(m map[string]float64) error {
	all := nodeset.Range(0, 9)
	m["coterie.compile_grid9_ns"] = perIter(20000, func(int) { sink = coterie.Compile(coterie.Grid{}, all) })
	lay := coterie.Compile(coterie.Grid{}, all)
	m["coterie.pick_read_grid9_ns"] = perIter(500000, func(i int) { sink, _ = lay.ReadQuorum(all, i) })
	m["coterie.pick_write_grid9_ns"] = perIter(500000, func(i int) { sink, _ = lay.WriteQuorum(all, i) })

	reads, writes := lay.EnumerateReadQuorums(0), lay.EnumerateWriteQuorums(0)
	in := coterie.OptimizeInput{Reads: reads, Writes: writes, Members: all.IDs(), ReadFrac: 0.9,
		Capacity: func(id nodeset.ID) float64 {
			if id == 4 {
				return 0.1
			}
			return 1
		}}
	dist, err := coterie.Optimize(in)
	if err != nil {
		return fmt.Errorf("coterie drive: %w", err)
	}
	m["coterie.optimize_grid9_us"] = perIter(20, func(int) { sink, _ = coterie.Optimize(in) }) / 1e3
	alias := coterie.NewAlias(dist.ReadWeights)
	m["coterie.alias_pick_ns"] = perIter(2000000, func(i int) { sink = alias.Pick(uint64(i)) })
	return nil
}

// driveReplica calls one replica's Item.Handle directly: the lock table,
// staging, apply and commit of a write, and the snapshot of a read, with
// no coordinator and no transport.
func driveReplica(m map[string]float64) error {
	node := replica.NewNode(0, transport.NewNetwork(), replica.Config{})
	defer node.Close()
	it, err := node.AddItem("item-0", nodeset.New(0), make([]byte, 256))
	if err != nil {
		return err
	}
	ctx := context.Background()
	u := replica.Update{Offset: 100, Data: make([]byte, 16)}
	good := nodeset.New(0)
	write := func(i int) (transport.Message, error) {
		op := replica.OpID{Coordinator: 0, Seq: uint64(i) + 1}
		reply, err := it.Handle(ctx, 0, replica.LockPrepare{Op: op, Update: u, NewVersion: uint64(i) + 1, GoodSet: good})
		if err != nil {
			return nil, err
		}
		if _, err := it.Handle(ctx, 0, replica.Commit{Op: op}); err != nil {
			return nil, err
		}
		return reply, nil
	}
	// perIter counts calls from 0 across batches, so version i+1 is always
	// the replica's next one; check once that the prepare really stages.
	var failed error
	m["replica.lockprepare_commit_ns"] = perIter(50000, func(i int) {
		reply, err := write(i)
		if lp, ok := reply.(replica.LockPrepareReply); err != nil || !ok || !lp.Prepared {
			failed = fmt.Errorf("replica drive: write %d not staged (%v, %v)", i, reply, err)
		}
	})
	if failed != nil {
		return failed
	}
	base := uint64(1) << 32
	m["replica.readsnap_ns"] = perIter(100000, func(i int) {
		sink, _ = it.Handle(ctx, 0, replica.ReadSnap{Op: replica.OpID{Coordinator: 0, Seq: base + uint64(i)}})
	})
	return nil
}

// driveCore runs the whole protocol on a one-member cluster: the floor
// under every operation, and the single-node baseline.
func driveCore(m map[string]float64) error {
	spec := simSpec{nodes: 1, items: 1, itemSize: 256, maxWrite: 16, readFrac: 0.5, clients: 1,
		callTimeout: 250 * time.Millisecond, strategy: core.StrategyHint, slowNode: -1}
	cl, err := newSimCluster(spec, 1, nil)
	if err != nil {
		return err
	}
	defer cl.close()
	ctx := context.Background()
	co := cl.coords[0][0]
	u := replica.Update{Offset: 100, Data: make([]byte, 16)}
	var failed error
	m["core.single_node_write_us"] = perIter(20000, func(int) {
		if _, err := co.Write(ctx, u); err != nil {
			failed = err
		}
	}) / 1e3
	m["core.single_node_read_us"] = perIter(20000, func(int) {
		if _, _, err := co.Read(ctx); err != nil {
			failed = err
		}
	}) / 1e3
	if failed != nil {
		return fmt.Errorf("core drive: %w", failed)
	}
	return nil
}

func drivePlacement(m map[string]float64) error {
	pm, err := placement.New(nodeset.Range(0, 4), 16, 3, 1)
	if err != nil {
		return err
	}
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("k%d", i)
	}
	m["placement.shard_of_ns"] = perIter(1000000, func(i int) { sink = pm.ShardOf(names[i%len(names)]) })
	m["placement.members_of_ns"] = perIter(1000000, func(i int) { sink = pm.MembersOf(names[i%len(names)]) })
	return nil
}

// driveOnecopy records a 100k-event history of one item (sequential, half
// reads) through onecopy.Recorder and times the bench's checker on it.
func driveOnecopy(m map[string]float64) error {
	initial := make([]byte, 256)
	rec := onecopy.NewRecorder(initial)
	value := append([]byte(nil), initial...)
	version := uint64(0)
	for i := 0; i < 100000/driveDivisor; i++ {
		start := rec.Begin()
		if i%2 == 0 {
			version++
			u := replica.Update{Offset: i % 240, Data: []byte{byte(i), byte(i >> 8)}}
			copy(value[u.Offset:], u.Data)
			rec.EndWrite(start, version, u)
		} else {
			rec.EndRead(start, version, value)
		}
	}
	events := rec.Events()
	var failed error
	batches := make([]float64, driveBatches)
	for b := range batches {
		began := time.Now()
		if err := checkHistory(initial, events); err != nil {
			failed = err
		}
		batches[b] = ms(time.Since(began))
	}
	m["onecopy.check_100k_ms"] = median(batches)
	return failed
}

func driveWorkload(m map[string]float64) error {
	z, err := workload.NewZipf(1024, zipfTheta, 1)
	if err != nil {
		return err
	}
	m["workload.zipf_next_ns"] = perIter(2000000, func(int) { sink = z.Next() })
	g, err := workload.NewGenerator(workload.Config{Members: nodeset.Range(0, 9), ReadFraction: 0.5, Seed: 1})
	if err != nil {
		return err
	}
	m["workload.gen_ns_per_op"] = perIter(500000, func(int) { sink = g.Next() })
	return nil
}

// paperTable1 is the paper's Table 1 (p = 0.95): write unavailability of
// the best static grid in units of 1e-6, and of the dynamic grid where
// the paper prints it.
var paperTable1 = []struct {
	n        int
	staticE6 float64
	dynamic  float64 // 0: not compared
}{
	{9, 3268.59, 0.18e-6}, {12, 912.25, 0.6e-10}, {15, 683.60, 1.564e-14},
	{16, 1208.75, 0}, {20, 250.82, 0}, {24, 78.23, 0}, {30, 135.90, 0},
}

// driveMarkov recomputes Table 1, times it, and compares it with the
// paper's numbers: the static column to the printed digit, the dynamic
// column within 2 %, the paper printing two to four significant digits.
func driveMarkov(m map[string]float64) error {
	var rows []markov.Table1Row
	var failed error
	batches := make([]float64, driveBatches)
	for b := range batches {
		began := time.Now()
		if rows, failed = markov.Table1(markov.PaperTable1Params()); failed != nil {
			return failed
		}
		batches[b] = ms(time.Since(began))
	}
	m["markov.table1_ms"] = median(batches)
	if len(rows) != len(paperTable1) {
		return fmt.Errorf("markov drive: %d rows, the paper has %d", len(rows), len(paperTable1))
	}
	for i, want := range paperTable1 {
		got := rows[i]
		if got.N != want.n || math.Abs(got.StaticU*1e6-want.staticE6) > 0.005 {
			return fmt.Errorf("markov drive: N=%d static %.2fe-6, the paper has N=%d %.2fe-6", got.N, got.StaticU*1e6, want.n, want.staticE6)
		}
		if want.dynamic != 0 && math.Abs(got.DynamicUF64-want.dynamic)/want.dynamic > 0.02 {
			return fmt.Errorf("markov drive: N=%d dynamic %.3g, the paper has %.3g", got.N, got.DynamicUF64, want.dynamic)
		}
	}
	return nil
}
