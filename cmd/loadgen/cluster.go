package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
	"coterie/internal/transport/tcpnet"
	"coterie/internal/workload"
)

// procCluster is cfg.nodes coteried processes on loopback and this
// process's client network to them: what both tcp modes set up. Churn is the
// only writer of procs while a run is on and has returned before the report
// reads it; workers read up.
type procCluster struct {
	cfg   config
	exe   string
	book  map[nodeset.ID]string
	procs []*proc       // nil while a node is down
	up    []atomic.Bool // procs[i] != nil, for the workers
	cli   *tcpnet.Network
	names []string // item names of -net tcp
}

// proc is one spawned coteried process and its bound admin address.
type proc struct {
	cmd   *exec.Cmd
	admin string
}

// reservePorts picks n distinct loopback addresses by binding ephemeral
// listeners, all held until the last is picked. Addresses are fixed (not :0
// per daemon) so that a killed daemon's replacement binds the same one and
// everyone else re-dials it transparently.
func reservePorts(n int) (map[nodeset.ID]string, error) {
	book := make(map[nodeset.ID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		book[nodeset.ID(i)] = ln.Addr().String()
	}
	return book, nil
}

// spawnCluster spawns one daemon per node and opens the client network.
func spawnCluster(cfg config, reg *obs.Registry) (*procCluster, error) {
	if cfg.latency > 0 {
		return nil, fmt.Errorf("-latency is simulation-only (real TCP has real latency)")
	}
	if _, err := core.ParseStrategy(cfg.strategy); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cannot self-spawn daemons: %w", err)
	}
	book, err := reservePorts(cfg.nodes)
	if err != nil {
		return nil, err
	}
	pc := &procCluster{cfg: cfg, exe: exe, book: book, procs: make([]*proc, cfg.nodes), up: make([]atomic.Bool, cfg.nodes)}
	for i := range pc.procs {
		if err := pc.spawn(nodeset.ID(i), false); err != nil {
			pc.close()
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d coteried daemons up (%s)\n", cfg.nodes, daemon.FormatCluster(pc.book))
	pc.cli = tcpnet.New(pc.book, tcpnet.WithObs(reg))
	return pc, nil
}

// spawn re-executes this binary's coteried subcommand for node id and waits
// until the daemon serves: its READY line on stdout carries the admin
// address it bound, and /healthz answering 200 there implies a serving data
// plane (the transport listener is bound first).
func (pc *procCluster) spawn(id nodeset.ID, recovering bool) error {
	cfg := pc.cfg
	shards, rf := cfg.shards, cfg.rf
	if shards == 0 {
		shards, rf = 1, cfg.nodes // -net tcp: every item on every node
	}
	// Ephemeral admin port unless -pprof asks for a fixed one: the READY
	// line reports the bound address, so spawner and daemon never race on
	// a reservation.
	admin := "127.0.0.1:0"
	if cfg.pprofPort > 0 {
		admin = fmt.Sprintf("127.0.0.1:%d", cfg.pprofPort+1+int(id))
	}
	args := []string{
		"coteried",
		"-node", strconv.Itoa(int(id)),
		"-cluster", daemon.FormatCluster(pc.book),
		"-item-size", strconv.Itoa(itemSize),
		"-call-timeout", callTimeout.String(),
		"-strategy", cfg.strategy,
		"-shards", strconv.Itoa(shards),
		"-rf", strconv.Itoa(rf),
		"-recovering=" + strconv.FormatBool(recovering),
		"-capacity", cfg.capacity,
		"-admin", admin,
	}
	if int(id) == cfg.slowNode {
		args = append(args, "-slow-read", cfg.slowRead.String())
	}
	cmd := exec.Command(pc.exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	ready := make(chan string, 1)
	go func() {
		defer close(ready) // closed without a value: the child died first
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var gotID int
			var addr, admin string
			if n, _ := fmt.Sscanf(sc.Text(), "READY %d %s admin=%s", &gotID, &addr, &admin); n == 3 {
				ready <- admin
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	p := &proc{cmd: cmd}
	select {
	case p.admin = <-ready:
		if p.admin == "" {
			err = fmt.Errorf("node %d exited before READY", id)
		} else {
			err = waitHealthy(p.admin, 15*time.Second)
		}
	case <-time.After(15 * time.Second):
		err = fmt.Errorf("node %d not READY after 15s", id)
	}
	if err != nil {
		p.kill()
		return fmt.Errorf("node %d: %w", id, err)
	}
	pc.procs[id] = p
	pc.up[id].Store(true)
	return nil
}

// waitHealthy polls the daemon's /healthz until it answers 200.
func waitHealthy(admin string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := "http://" + admin + "/healthz"
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy at %s after %s", url, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (p *proc) kill() {
	p.cmd.Process.Kill() // SIGKILL: a crash, not a shutdown
	p.cmd.Wait()
}

// close stops every live daemon (SIGTERM, then SIGKILL after 3 s) and the
// client network.
func (pc *procCluster) close() {
	for _, p := range pc.procs {
		if p == nil {
			continue
		}
		p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { p.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			p.cmd.Process.Kill()
			<-done
		}
	}
	if pc.cli != nil {
		pc.cli.Close()
	}
}

// crash and restart are process-level churn: a SIGKILLed daemon is a real
// dead process, and its replacement starts -recovering, so crash amnesia,
// epoch readmission and propagation all cross the wire.
func (pc *procCluster) crash(id nodeset.ID) {
	pc.up[id].Store(false)
	pc.procs[id].kill()
	pc.procs[id] = nil
}

func (pc *procCluster) restart(id nodeset.ID) error { return pc.spawn(id, true) }

func (pc *procCluster) checkEpoch(ctx context.Context, item int, from nodeset.ID) {
	// A transport ID no worker uses. A failed check is retried by the next
	// round of checks.
	self := nodeset.ID(pc.cfg.nodes + pc.cfg.workers)
	_, _ = pc.cli.Call(ctx, self, from, capi.CheckEpoch{Item: pc.names[item]})
}

// scrape merges every daemon's admin endpoint into the result and prints
// the merged metrics: the server-side totals this process cannot see.
func (pc *procCluster) scrape(res *result) {
	var addrs []string
	for _, p := range pc.procs {
		if p != nil {
			addrs = append(addrs, p.admin)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cs := capi.ScrapeCluster(ctx, nil, addrs)
	for _, err := range cs.Errs {
		fmt.Fprintf(os.Stderr, "loadgen: cluster scrape: %v\n", err)
	}
	if len(cs.Nodes) == 0 {
		return
	}
	title := fmt.Sprintf("cluster summary (%d/%d daemons scraped)", len(cs.Nodes), len(addrs))
	res.ClusterMetrics = printMetrics(title, cs.Counters, cs.Hists)
}

// statusErr maps a capi reply status onto the errors the accounting knows.
func statusErr(st capi.Status, detail string) error {
	switch st {
	case capi.StatusOK:
		return nil
	case capi.StatusConflict:
		return fmt.Errorf("%w: %s", core.ErrConflict, detail)
	case capi.StatusUnavailable:
		return fmt.Errorf("%w: %s", core.ErrUnavailable, detail)
	default:
		return errors.New(detail)
	}
}

// setupTCP is -net tcp: daemons serving a one-shard map over every node,
// so any of them coordinates any item. Worker w calls the coordinator node
// the generator drew (routed past a node churn has down), as transport node
// nodes+w, with the raw capi messages.
func setupTCP(cfg config, reg *obs.Registry) (*target, error) {
	pc, err := spawnCluster(cfg, reg)
	if err != nil {
		return nil, err
	}
	pc.names = itemNames(cfg.items)
	attempt := func(ctx context.Context, w, item int, op workload.Op) (uint64, []byte, error) {
		var req transport.Message = capi.Read{Item: pc.names[item]}
		if op.Kind == workload.OpWrite {
			req = capi.Write{Item: pc.names[item], Update: op.Update}
		}
		to := route(op.Coordinator, cfg.nodes, func(id nodeset.ID) bool { return pc.up[id].Load() })
		reply, err := pc.cli.Call(ctx, nodeset.ID(cfg.nodes+w), to, req)
		if err != nil {
			return 0, nil, err
		}
		switch r := reply.(type) {
		case capi.ReadReply:
			return r.Version, r.Value, statusErr(r.Status, r.Detail)
		case capi.WriteReply:
			return r.Version, nil, statusErr(r.Status, r.Detail)
		default:
			return 0, nil, fmt.Errorf("unexpected reply type %T", reply)
		}
	}
	return &target{keys: cfg.items, attempt: attempt, faults: pc, extras: pc.scrape, close: pc.close}, nil
}

// setupShard is the sharded mode: one smart client shared by all workers
// routes key k, named "k<k>", to a daemon owning its shard. The client does
// its own retrying inside the operation timeout and never resends a write
// that may have committed (capi.ErrAmbiguous), which is what keeps the
// checked histories free of duplicate commits.
func setupShard(cfg config, reg *obs.Registry) (*target, error) {
	pc, err := spawnCluster(cfg, reg)
	if err != nil {
		return nil, err
	}
	seeds := make([]nodeset.ID, cfg.nodes)
	for i := range seeds {
		seeds[i] = nodeset.ID(i)
	}
	client, err := capi.NewClient(pc.cli, capi.ClientConfig{
		Self:        nodeset.ID(cfg.nodes),
		Seeds:       seeds,
		OpTimeout:   opTimeout,
		CallTimeout: callTimeout,
		Hedge:       cfg.hedge,
		Obs:         reg,
		Seed:        uint64(cfg.seed),
		TraceSample: cfg.traceSample,
	})
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = client.Refresh(ctx)
		cancel()
	}
	if err != nil {
		pc.close()
		return nil, fmt.Errorf("shard map bootstrap: %w", err)
	}
	pm := client.Map()
	fmt.Fprintf(os.Stderr, "loadgen: shard map v%d: %d shards rf=%d across %d nodes\n",
		pm.Version(), pm.NumShards(), pm.RF(), pm.Nodes().Len())

	shardOps := make([]atomic.Int64, pm.NumShards())
	attempt := func(ctx context.Context, _, key int, op workload.Op) (uint64, []byte, error) {
		name := "k" + strconv.Itoa(key)
		shardOps[pm.ShardOf(name)].Add(1)
		if op.Kind == workload.OpRead {
			r, err := client.Read(ctx, name)
			if err != nil {
				return 0, nil, err
			}
			return r.Version, r.Value, statusErr(r.Status, r.Detail)
		}
		r, err := client.Write(ctx, name, op.Update)
		if err != nil {
			return 0, nil, err
		}
		return r.Version, nil, statusErr(r.Status, r.Detail)
	}
	extras := func(res *result) {
		cs := client.Stats()
		res.Client = &cs
		fmt.Fprintf(os.Stderr, "loadgen: client retries=%d hedges=%d hedge_wins=%d hedge_canceled=%d wrong_shard=%d map_refresh=%d traces=%d\n",
			cs.Retries, cs.Hedges, cs.HedgeWins, cs.HedgeCanceled, cs.WrongShard, cs.MapRefresh, cs.TracesSampled)
		var lo, hi, total int64 = shardOps[0].Load(), 0, 0
		for i := range shardOps {
			n := shardOps[i].Load()
			res.PerShardOps = append(res.PerShardOps, n)
			lo, hi, total = min(lo, n), max(hi, n), total+n
		}
		fmt.Fprintf(os.Stderr, "loadgen: shard spread: %d shards, ops min=%d max=%d mean=%.0f\n",
			len(shardOps), lo, hi, float64(total)/float64(len(shardOps)))
		pc.scrape(res)
	}
	return &target{keys: cfg.keyspace, attempt: attempt, extras: extras, close: pc.close}, nil
}
