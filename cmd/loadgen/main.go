// Command loadgen is a throughput harness for the dynamic structured
// coterie protocol's data plane. It builds an in-process cluster of N
// nodes replicating M independent data items, then drives K worker
// goroutines that each repeatedly pick an item and a coordinator and
// execute a read or a partial write. By default the loop is closed (each
// worker waits for its operation before issuing the next, so offered load
// tracks service rate and aggregate ops/sec measures the data plane
// itself, not a queue); -rate R switches to an open loop where the
// workers collectively issue R operations per second on a fixed schedule
// and latency is measured from each operation's scheduled arrival, so
// backlog shows up in the tail percentiles.
//
// The group-commit pipeline is driven by -batch (with -batch-max and
// -batch-queue sizing the combiner), and merges best when -affinity
// routes all writes for an item through one coordinator. -strategy
// selects quorum picking: "hint" rotates pseudo-randomly, "load" steers
// toward the least-loaded endpoints via a shared EWMA load tracker.
// -batch-prop batches stale propagation per target node.
//
// The multi-item, multi-coordinator shape is the contention profile the
// protocol promises to serve well: operations on different items share
// the transport, the per-node replica tables and the history recorder,
// but no protocol-level locks. Before the data-plane work in this change,
// those shared structures serialized independent operations behind
// global mutexes; loadgen exists to measure exactly that.
//
// Observability (-obs, on by default) attaches the obs registry and a
// flight recorder to every layer; -metrics ADDR additionally serves the
// live registry over HTTP (Prometheus text at /, ?format=json,
// ?format=traces). -latency injects per-call network delay and -churn
// crashes/restarts nodes with epoch checks in between, which surfaces the
// paper's failure-path metrics: epoch redirects, stale marks and the
// staleness-duration histogram. A human-readable summary and one sample
// flight trace go to stderr; stdout stays one pure JSON object (see
// result), suitable for collecting into BENCH_2.json / BENCH_3.json.
// Typical use:
//
//	go run ./cmd/loadgen -nodes 9 -items 8 -workers 8 -duration 3s
//	go run ./cmd/loadgen -latency 200us -churn 300ms -metrics :9090
//	GOMAXPROCS=4 go run ./cmd/loadgen -read-frac 0.8 -obs=false
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	"coterie/internal/coterie"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/obs/expose"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/workload"
)

type config struct {
	nodes       int
	items       int
	workers     int
	readFrac    float64
	duration    time.Duration
	itemSize    int
	writeLen    int
	seed        int64
	timeout     time.Duration
	callTimeout time.Duration
	disjoint    bool
	obsOn       bool
	metricsAddr string
	latency     time.Duration
	churn       time.Duration
	traceCap    int
	batch       bool
	batchMax    int
	batchQueue  int
	strategy    string
	capacity    string
	zipfItems   bool
	rate        float64
	affinity    bool
	batchProp   bool
	netMode     string
	pipeline    bool
	pool        int
	pprofPort   int
	compare     string
	adminOn     bool
	traceSample int

	// Sharded mode (-shards > 0): the keyspace is hashed across many
	// coteries and driven through the smart capi client instead of the
	// fixed item list.
	shards      int
	rf          int
	keyspace    int
	zipfTheta   float64
	hedge       bool
	slowNode    int
	slowRead    time.Duration
	sweep       bool
	checkStride int
	maxCoords   int
}

// outcomes is the per-operation-type disposition breakdown.
type outcomes struct {
	OK          int `json:"ok"`
	Unavailable int `json:"quorum_unavailable"`
	Conflict    int `json:"conflict"`
	TimedOut    int `json:"timed_out"`
	Other       int `json:"other"`
}

func (o *outcomes) add(err error) {
	switch {
	case err == nil:
		o.OK++
	case errors.Is(err, context.DeadlineExceeded):
		o.TimedOut++
	case errors.Is(err, core.ErrConflict):
		o.Conflict++
	case errors.Is(err, core.ErrUnavailable):
		o.Unavailable++
	default:
		o.Other++
	}
}

// result is the JSON report. Latencies are microseconds.
type result struct {
	Nodes         int              `json:"nodes"`
	Items         int              `json:"items"`
	Workers       int              `json:"workers"`
	ReadFrac      float64          `json:"read_frac"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	NumCPU        int              `json:"num_cpu"`
	Seed          int64            `json:"seed"`
	Obs           bool             `json:"obs"`
	Batch         bool             `json:"batch"`
	Strategy      string           `json:"strategy"`
	Capacity      string           `json:"capacity,omitempty"`
	ZipfItems     bool             `json:"zipf_items,omitempty"`
	Affinity      bool             `json:"affinity"`
	BatchProp     bool             `json:"batch_prop"`
	RateTarget    float64          `json:"rate_target,omitempty"`
	LatencyUs     int64            `json:"latency_us"`
	ChurnMs       int64            `json:"churn_ms"`
	ElapsedSec    float64          `json:"elapsed_sec"`
	Ops           int              `json:"ops"`
	Reads         int              `json:"reads"`
	Writes        int              `json:"writes"`
	Conflicts     int              `json:"conflicts"`
	Failures      int              `json:"failures"`
	OpsPerSec     float64          `json:"ops_per_sec"`
	ReadP50us     int64            `json:"read_p50_us"`
	ReadP99us     int64            `json:"read_p99_us"`
	ReadP999us    int64            `json:"read_p999_us"`
	WriteP50us    int64            `json:"write_p50_us"`
	WriteP99us    int64            `json:"write_p99_us"`
	WriteP999us   int64            `json:"write_p999_us"`
	ReadOutcomes  outcomes         `json:"read_outcomes"`
	WriteOutcomes outcomes         `json:"write_outcomes"`
	Metrics       map[string]int64 `json:"metrics,omitempty"`

	// StrategyOutcomes keys the run's read/write dispositions by the
	// canonical strategy name, so sweep harnesses can merge reports from
	// different strategies without re-deriving which run was which.
	StrategyOutcomes map[string]opOutcomes `json:"strategy_outcomes,omitempty"`

	// Net-mode extras: which data plane ran, whether the TCP transport
	// pipelined, and the one-copy serializability verdict (nil = history
	// checking did not run, as in sim mode).
	Net               string `json:"net,omitempty"`
	Pipeline          *bool  `json:"pipeline,omitempty"`
	OneCopyViolations *int   `json:"onecopy_violations,omitempty"`

	// Sharded-mode extras: the placement geometry, how much of the
	// keyspace the run actually touched (distinct keys) and history-checked
	// (checked keys), per-shard operation counts, and the smart client's
	// retry/hedge counters.
	Shards       int               `json:"shards,omitempty"`
	RF           int               `json:"rf,omitempty"`
	Keyspace     int               `json:"keyspace,omitempty"`
	ZipfTheta    float64           `json:"zipf_theta,omitempty"`
	Hedge        *bool             `json:"hedge,omitempty"`
	SlowRead     string            `json:"slow_read,omitempty"`
	DistinctKeys int               `json:"distinct_keys,omitempty"`
	CheckedKeys  int               `json:"checked_keys,omitempty"`
	PerShardOps  []int64           `json:"per_shard_ops,omitempty"`
	Client       *capi.ClientStats `json:"client,omitempty"`

	// Cluster-merged counters scraped from every daemon's admin endpoint
	// after the run (tcp modes with -admin): the server-side totals the
	// client-side Metrics map cannot see.
	ClusterMetrics map[string]int64 `json:"cluster_metrics,omitempty"`
}

// workerStats accumulates one worker's counts and latency samples; workers
// never share these, so the measurement loop itself is contention-free.
type workerStats struct {
	reads, writes       int
	conflicts, failures int
	readOut, writeOut   outcomes
	readLat, writeLat   []time.Duration
}

func main() {
	// Self-spawn: `loadgen coteried <flags>` runs one daemon, so -net tcp
	// needs no separately built binary on the machine it runs on.
	if len(os.Args) > 1 && os.Args[1] == "coteried" {
		if err := daemon.RunMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "coteried:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	flag.IntVar(&cfg.nodes, "nodes", 9, "replica nodes per item")
	flag.IntVar(&cfg.items, "items", 8, "independent data items")
	flag.IntVar(&cfg.workers, "workers", 8, "closed-loop client goroutines")
	flag.Float64Var(&cfg.readFrac, "read-frac", 0.5, "fraction of operations that are reads")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "measurement interval")
	flag.IntVar(&cfg.itemSize, "item-size", 256, "logical item size in bytes")
	flag.IntVar(&cfg.writeLen, "write-len", 16, "max partial-write length in bytes")
	flag.Int64Var(&cfg.seed, "seed", 1, "PRNG seed")
	flag.DurationVar(&cfg.timeout, "op-timeout", 5*time.Second, "per-operation timeout")
	flag.DurationVar(&cfg.callTimeout, "call-timeout", 250*time.Millisecond, "per-RPC-round timeout (also scales lock leases)")
	flag.BoolVar(&cfg.disjoint, "disjoint", false, "pin worker w to item w%items: no protocol-level lock conflicts, isolating shared-structure contention")
	flag.BoolVar(&cfg.obsOn, "obs", true, "attach the observability registry and flight recorder")
	flag.StringVar(&cfg.metricsAddr, "metrics", "", "serve live metrics over HTTP on this address (e.g. :9090); requires -obs")
	flag.DurationVar(&cfg.latency, "latency", 0, "mean injected per-call network latency (0 = none)")
	flag.DurationVar(&cfg.churn, "churn", 0, "crash/restart a node with epoch checks at this cadence (0 = none)")
	flag.IntVar(&cfg.traceCap, "trace-cap", 256, "flight recorder ring capacity")
	flag.BoolVar(&cfg.batch, "batch", false, "enable the group-commit write combiner")
	flag.IntVar(&cfg.batchMax, "batch-max", 0, "max writes merged per batched protocol round (0 = core default)")
	flag.IntVar(&cfg.batchQueue, "batch-queue", 0, "combiner queue depth before writers overflow to the single-write path (0 = core default)")
	flag.StringVar(&cfg.strategy, "strategy", "hint", "quorum selection strategy: hint (pseudo-random rotation), load (least-loaded via EWMA), optimized (capacity-weighted quorum distribution) or read-dominant (optimized with a small-read-quorum bias)")
	flag.StringVar(&cfg.capacity, "capacity", "", "relative node capacities for the weighted strategies: id=weight,... (unlisted nodes are 1.0)")
	flag.BoolVar(&cfg.zipfItems, "zipf-items", false, "pick items with Zipf(-zipf theta) popularity instead of uniformly (fixed-item modes; ignored with -disjoint)")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in ops/sec across all workers (0 = closed loop)")
	flag.BoolVar(&cfg.affinity, "affinity", false, "route all writes for an item through one coordinator so group commit can merge them")
	flag.BoolVar(&cfg.batchProp, "batch-prop", false, "batch stale propagation per target node")
	flag.StringVar(&cfg.netMode, "net", "sim", "data plane: sim (in-process simulated network) or tcp (spawn coteried daemons and drive them over loopback)")
	flag.BoolVar(&cfg.pipeline, "pipeline", true, "tcp mode: multiplex calls over persistent connections (false = dial per call)")
	flag.IntVar(&cfg.pool, "pool", 0, "tcp mode: pipelined connections per peer (0 = transport default)")
	flag.IntVar(&cfg.pprofPort, "pprof", 0, "serve net/http/pprof on 127.0.0.1:PORT (tcp mode: daemon i serves on PORT+1+i)")
	flag.StringVar(&cfg.compare, "compare", "", "JSON result of a previous run to report the per-transport latency gap against (e.g. a -net sim result while running -net tcp)")
	flag.BoolVar(&cfg.adminOn, "admin", true, "tcp mode: give each spawned daemon an admin plane (/metrics /traces /healthz), use /healthz for readiness, and print a cluster-merged summary after the run")
	flag.IntVar(&cfg.traceSample, "trace-sample", 0, "sharded mode: sample 1 in N client operations into a cross-node distributed trace (0 = off, 1 = every op)")
	flag.IntVar(&cfg.shards, "shards", 0, "shard the keyspace across this many coteries and drive it through the smart client (requires -net tcp; 0 = fixed -items list)")
	flag.IntVar(&cfg.rf, "rf", 0, "replicas per shard in sharded mode (0 = daemon default)")
	flag.IntVar(&cfg.keyspace, "keyspace", 0, "distinct keys in sharded mode (0 = 1,000,000)")
	flag.Float64Var(&cfg.zipfTheta, "zipf", workload.DefaultZipfTheta, "Zipfian skew theta in (0,1) for sharded-mode key popularity")
	flag.BoolVar(&cfg.hedge, "hedge", false, "sharded mode: hedge reads to an alternate shard member after a p99-derived delay")
	flag.IntVar(&cfg.slowNode, "slow-node", -1, "node ID to slow down with -slow-read (-1 = none)")
	flag.DurationVar(&cfg.slowRead, "slow-read", 0, "injected service delay on the -slow-node node (sim mode: every message it serves; tcp/sharded: every client read)")
	flag.BoolVar(&cfg.sweep, "sweep", false, "sharded mode: interleave a full deterministic sweep of the keyspace so every key is touched at least once (runs past -duration if needed)")
	flag.IntVar(&cfg.checkStride, "check-stride", 1, "sharded mode: record one-copy history for every key-th key plus the hottest 1024 (1 = all keys; larger strides bound checker memory on million-key runs)")
	flag.IntVar(&cfg.maxCoords, "max-coords", 0, "sharded mode: live coordinator cap per daemon (0 = daemon default)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.nodes <= 0 || cfg.items <= 0 || cfg.workers <= 0 {
		return fmt.Errorf("nodes, items and workers must be positive")
	}
	if cfg.shards > 0 {
		return runShard(cfg)
	}
	switch cfg.netMode {
	case "sim":
	case "tcp":
		return runTCP(cfg)
	default:
		return fmt.Errorf("unknown -net %q (want sim or tcp)", cfg.netMode)
	}

	reg := obs.Nop
	if cfg.obsOn {
		reg = obs.New()
		reg.SetFlight(obs.NewFlightRecorder(cfg.traceCap))
	}
	if cfg.metricsAddr != "" {
		if reg == obs.Nop {
			return fmt.Errorf("-metrics requires -obs")
		}
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		srv := &http.Server{Handler: expose.Handler(reg)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: serving metrics on http://%s/ (?format=json, ?format=traces)\n", ln.Addr())
	}

	stopPprof, err := servePprof(cfg.pprofPort)
	if err != nil {
		return err
	}
	defer stopPprof()

	tOpts := []transport.Option{transport.WithSeed(cfg.seed)}
	if reg != obs.Nop {
		tOpts = append(tOpts, transport.WithObs(reg))
	}
	if cfg.latency > 0 {
		mean := cfg.latency
		tOpts = append(tOpts, transport.WithLatency(func(r *rand.Rand) time.Duration {
			return mean/2 + time.Duration(r.Int63n(int64(mean)))
		}))
	}
	netw := transport.NewNetwork(tOpts...)
	members := nodeset.Range(0, nodeset.ID(cfg.nodes))

	// One replica node per member; every node replicates every item and
	// hosts a coordinator per item, like the paper's symmetric deployment.
	// Lock leases follow the coordinator's round timeout (core's default
	// relation): conflicting operations that wedge each other's quorum
	// locks resolve on the lease, so a short round timeout keeps the
	// closed loop moving instead of measuring lease expiries.
	strategy, err := core.ParseStrategy(cfg.strategy)
	if err != nil {
		return err
	}
	var tracker *core.LoadTracker
	if strategy != core.StrategyHint {
		// One tracker across every coordinator of every item: they all
		// steer by the same observed per-endpoint load.
		tracker = core.NewLoadTracker(netw, members, reg)
	}
	capacity, err := capacityFunc(cfg.capacity)
	if err != nil {
		return err
	}
	copts := core.Options{
		CallTimeout: cfg.callTimeout,
		Obs:         reg,
		Strategy:    strategy,
		Load:        tracker,
		Capacity:    capacity,
		GroupCommit: core.GroupCommitOptions{
			Enabled:  cfg.batch,
			MaxBatch: cfg.batchMax,
			MaxQueue: cfg.batchQueue,
		},
	}
	if strategy.Weighted() {
		// One engine across every coordinator of every item — the solved
		// distribution is cluster-wide, and per-coordinator engines would
		// multiply the background solves by nodes×items.
		copts.Engine = core.NewStrategyEngine(members, tracker, copts)
	}

	rcfg := replica.Config{LockLease: 4 * cfg.callTimeout, Obs: reg, PropagationBatch: cfg.batchProp}
	copts.Replica = rcfg
	nodes := make([]*replica.Node, cfg.nodes)
	for i := range nodes {
		nodes[i] = replica.NewNode(nodeset.ID(i), netw, rcfg)
		defer nodes[i].Close()
	}
	if cfg.slowRead > 0 && cfg.slowNode >= 0 && cfg.slowNode < cfg.nodes {
		// A weak node: every protocol message it serves takes -slow-read
		// longer. Registering over the node's own handler keeps the wrap
		// transparent to the protocol; only service time changes.
		inner := nodes[cfg.slowNode].Handler()
		delay := cfg.slowRead
		netw.Register(nodeset.ID(cfg.slowNode), func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
			time.Sleep(delay)
			return inner(ctx, from, req)
		})
		fmt.Fprintf(os.Stderr, "loadgen: node %d serves every message %s slower\n", cfg.slowNode, delay)
	}
	coords := make([][]*core.Coordinator, cfg.items) // [item][node]
	for it := 0; it < cfg.items; it++ {
		name := fmt.Sprintf("item-%d", it)
		coords[it] = make([]*core.Coordinator, cfg.nodes)
		for i, n := range nodes {
			rep, err := n.AddItem(name, members, make([]byte, cfg.itemSize))
			if err != nil {
				return err
			}
			coords[it][i] = core.NewCoordinator(rep, netw, members, copts)
		}
	}

	stats := make([]workerStats, cfg.workers)
	deadline := time.Now().Add(cfg.duration)
	ctx := context.Background()
	runCtx, runCancel := context.WithDeadline(ctx, deadline)
	defer runCancel()
	var wg sync.WaitGroup
	start := time.Now()
	// One pacer shared by all workers makes the union of their operations a
	// single fixed-rate arrival stream; nil (rate 0) keeps the closed loop.
	pacer := workload.NewPacer(cfg.rate, start)
	zipfStreams, err := zipfItemStreams(cfg)
	if err != nil {
		return err
	}

	if cfg.churn > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churnLoop(ctx, cfg, netw, coords, deadline)
		}()
	}

	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			rng := rand.New(rand.NewSource(int64(mix64(uint64(cfg.seed) + uint64(w)*0x9e3779b97f4a7c15))))
			buf := make([]byte, cfg.writeLen)
			for time.Now().Before(deadline) {
				// In open-loop mode `began` is the operation's scheduled
				// arrival (possibly in the past when the system is behind);
				// in closed-loop mode Wait returns the current time.
				began, due := pacer.Wait(runCtx)
				if !due {
					return
				}
				item := pickItem(cfg, w, rng, zipfStreams)
				isRead := rng.Float64() < cfg.readFrac
				node := rng.Intn(cfg.nodes)
				if cfg.affinity && !isRead {
					// All writes to an item share a coordinator so the
					// group-commit combiner can merge them; reads stay spread.
					node = item % cfg.nodes
				}
				co := coords[item][node]
				opCtx, cancel := context.WithTimeout(ctx, cfg.timeout)
				if isRead {
					_, _, err := co.Read(opCtx)
					st.readOut.add(err)
					if err == nil {
						st.reads++
						st.readLat = append(st.readLat, time.Since(began))
					} else {
						st.failures++
					}
				} else {
					length := 1 + rng.Intn(cfg.writeLen)
					data := buf[:length]
					for i := range data {
						data[i] = byte('a' + rng.Intn(26))
					}
					u := replica.Update{Offset: rng.Intn(cfg.itemSize - length + 1), Data: data}
					_, err := co.Write(opCtx, u)
					st.writeOut.add(err)
					if err == nil {
						st.writes++
						st.writeLat = append(st.writeLat, time.Since(began))
					} else if errors.Is(err, core.ErrConflict) {
						st.conflicts++
					} else {
						st.failures++
					}
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := result{
		Nodes: cfg.nodes, Items: cfg.items, Workers: cfg.workers,
		ReadFrac:   cfg.readFrac,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       cfg.seed,
		Obs:        cfg.obsOn,
		Batch:      cfg.batch,
		Strategy:   strategy.String(),
		Capacity:   cfg.capacity,
		ZipfItems:  cfg.zipfItems,
		Affinity:   cfg.affinity,
		BatchProp:  cfg.batchProp,
		RateTarget: cfg.rate,
		LatencyUs:  cfg.latency.Microseconds(),
		ChurnMs:    cfg.churn.Milliseconds(),
		ElapsedSec: elapsed.Seconds(),
	}
	var readLat, writeLat []time.Duration
	for i := range stats {
		st := &stats[i]
		res.Reads += st.reads
		res.Writes += st.writes
		res.Conflicts += st.conflicts
		res.Failures += st.failures
		addOutcomes(&res.ReadOutcomes, st.readOut)
		addOutcomes(&res.WriteOutcomes, st.writeOut)
		readLat = append(readLat, st.readLat...)
		writeLat = append(writeLat, st.writeLat...)
	}
	res.Ops = res.Reads + res.Writes
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	res.ReadP50us = percentile(readLat, 0.50).Microseconds()
	res.ReadP99us = percentile(readLat, 0.99).Microseconds()
	res.WriteP50us = percentile(writeLat, 0.50).Microseconds()
	res.WriteP99us = percentile(writeLat, 0.99).Microseconds()
	res.ReadP999us = percentile(readLat, 0.999).Microseconds()
	res.WriteP999us = percentile(writeLat, 0.999).Microseconds()
	if cfg.slowRead > 0 && cfg.slowNode >= 0 {
		res.SlowRead = cfg.slowRead.String()
	}
	attachStrategyOutcomes(&res)

	if reg != obs.Nop {
		snap := reg.Snapshot()
		res.Metrics = make(map[string]int64, len(snap.Counters))
		for _, c := range snap.Counters {
			if c.Value != 0 {
				res.Metrics[c.Name] = c.Value
			}
		}
		printSummary(os.Stderr, snap)
	}
	printLatencyGap(res, cfg.compare)

	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(res)
}

// churnLoop crashes one node at a time, runs epoch checks so the survivors
// install a smaller epoch, restarts the node and checks again so it is
// readmitted (stale) and propagation brings it current. This exercises the
// paper's failure path end to end: epoch redirects on the coordinators
// whose cached epoch went stale, stale marks on the readmitted replica,
// and a populated staleness-duration histogram.
func churnLoop(ctx context.Context, cfg config, netw *transport.Network, coords [][]*core.Coordinator, deadline time.Time) {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(cfg.seed) ^ 0xc0ffee))))
	checkAll := func(avoid nodeset.ID) {
		for it := range coords {
			from := nodeset.ID(rng.Intn(cfg.nodes))
			if from == avoid {
				from = (from + 1) % nodeset.ID(cfg.nodes)
			}
			checkCtx, cancel := context.WithTimeout(ctx, cfg.timeout)
			_, _ = coords[it][from].CheckEpoch(checkCtx)
			cancel()
		}
	}
	for time.Now().Before(deadline) {
		victim := nodeset.ID(rng.Intn(cfg.nodes))
		netw.Crash(victim)
		checkAll(victim)
		if !sleepUntil(cfg.churn, deadline) {
			netw.Restart(victim)
			checkAll(victim)
			return
		}
		netw.Restart(victim)
		checkAll(victim)
		if !sleepUntil(cfg.churn, deadline) {
			return
		}
	}
}

// servePprof starts a net/http/pprof server on 127.0.0.1:port; port 0
// disables profiling and returns a no-op closer. Shared by sim and tcp
// mode (the client process; spawned daemons get their own ports).
func servePprof(port int) (func(), error) {
	if port <= 0 {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	runtime.SetMutexProfileFraction(100)
	srv := &http.Server{Handler: daemon.PprofMux()}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "loadgen: serving pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { srv.Close(); ln.Close() }, nil
}

// sleepUntil sleeps d but not past the deadline; it reports whether the
// deadline is still ahead.
func sleepUntil(d time.Duration, deadline time.Time) bool {
	if remain := time.Until(deadline); remain < d {
		if remain > 0 {
			time.Sleep(remain)
		}
		return false
	}
	time.Sleep(d)
	return true
}

// printSummary writes the human-readable end-of-run report: the headline
// protocol metrics and one sample flight trace (preferring a partial write
// that marked replicas stale — the trace the paper's Section 4.2 story is
// about).
func printSummary(w *os.File, snap obs.Snapshot) {
	fmt.Fprintln(w, "--- obs summary ---")
	for _, c := range slices.Concat(snap.Counters, snap.Gauges) {
		if c.Value != 0 {
			fmt.Fprintf(w, "%-45s %d\n", c.Name, c.Value)
		}
	}
	// A histogram vector (call times by destination) prints merged.
	hists := snap.Histograms
	for _, v := range snap.HistVecs {
		var merged obs.HistogramSnapshot
		for _, cell := range v.Hists {
			merged = merged.Merge(cell)
		}
		hists = append(hists, obs.NamedHistogram{Name: v.Name, Hist: merged})
	}
	for _, h := range hists {
		if h.Hist.Count == 0 {
			continue
		}
		p50, p99 := h.Hist.Quantile(0.50), h.Hist.Quantile(0.99)
		if strings.HasSuffix(h.Name, "_ns") {
			fmt.Fprintf(w, "%-45s count=%d p50=%s p99=%s\n", h.Name, h.Hist.Count,
				time.Duration(p50), time.Duration(p99))
		} else {
			fmt.Fprintf(w, "%-45s count=%d p50=%d p99=%d\n", h.Name, h.Hist.Count, p50, p99)
		}
	}
	if tr := sampleTrace(snap.Traces); tr != nil {
		fmt.Fprintln(w, "--- sample flight trace ---")
		fmt.Fprint(w, expose.FormatTrace(tr))
	}
}

// transportLabel names the data plane a result ran on for the latency
// summary; sim-mode results predate the Net field, so empty means sim.
func transportLabel(res result) string {
	if res.Net == "" {
		return "sim"
	}
	return res.Net
}

// printLatencyGap writes the per-transport operation latency line to
// stderr and, when comparePath points at a previous run's JSON result,
// the ratio between the two runs' percentiles. Running the same workload
// once with -net sim and once with -net tcp -compare <sim.json> prints
// the sim-vs-TCP gap directly — the number the networked hot-path work
// drives toward 1.
func printLatencyGap(res result, comparePath string) {
	fmt.Fprintf(os.Stderr, "loadgen: latency[%s] read p50=%dµs p99=%dµs write p50=%dµs p99=%dµs (%.0f ops/s)\n",
		transportLabel(res), res.ReadP50us, res.ReadP99us, res.WriteP50us, res.WriteP99us, res.OpsPerSec)
	if comparePath == "" {
		return
	}
	raw, err := os.ReadFile(comparePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -compare: %v\n", err)
		return
	}
	var base result
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -compare %s: %v\n", comparePath, err)
		return
	}
	ratio := func(cur, prev int64) string {
		if prev <= 0 || cur <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2fx", float64(cur)/float64(prev))
	}
	fmt.Fprintf(os.Stderr, "loadgen: latency[%s] read p50=%dµs p99=%dµs write p50=%dµs p99=%dµs (%.0f ops/s)\n",
		transportLabel(base), base.ReadP50us, base.ReadP99us, base.WriteP50us, base.WriteP99us, base.OpsPerSec)
	fmt.Fprintf(os.Stderr, "loadgen: gap %s vs %s: read p50 %s p99 %s, write p50 %s p99 %s, throughput %s\n",
		transportLabel(res), transportLabel(base),
		ratio(res.ReadP50us, base.ReadP50us), ratio(res.ReadP99us, base.ReadP99us),
		ratio(res.WriteP50us, base.WriteP50us), ratio(res.WriteP99us, base.WriteP99us),
		func() string {
			if base.OpsPerSec <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", res.OpsPerSec/base.OpsPerSec)
		}())
}

// sampleTrace picks the most interesting completed trace: a write with a
// stale-mark event if one exists, else any write, else any trace.
func sampleTrace(traces []obs.Trace) *obs.Trace {
	var anyWrite, any *obs.Trace
	for i := range traces {
		tr := &traces[i]
		if any == nil {
			any = tr
		}
		if tr.Kind != obs.OpWrite {
			continue
		}
		if anyWrite == nil {
			anyWrite = tr
		}
		for _, e := range tr.EventsSlice() {
			if e.Kind == obs.EvStaleMark {
				return tr
			}
		}
	}
	if anyWrite != nil {
		return anyWrite
	}
	return any
}

// opOutcomes pairs the read and write dispositions for one strategy in
// the report's strategy_outcomes map.
type opOutcomes struct {
	Reads  outcomes `json:"reads"`
	Writes outcomes `json:"writes"`
}

// attachStrategyOutcomes fills the per-strategy breakdown once the
// aggregate outcomes are summed. res.Strategy must already hold the
// canonical strategy name.
func attachStrategyOutcomes(res *result) {
	res.StrategyOutcomes = map[string]opOutcomes{
		res.Strategy: {Reads: res.ReadOutcomes, Writes: res.WriteOutcomes},
	}
}

// capacityFunc turns the -capacity flag into a coterie load function, or
// nil when the cluster is homogeneous.
func capacityFunc(spec string) (coterie.LoadFunc, error) {
	if spec == "" {
		return nil, nil
	}
	caps, err := daemon.ParseCapacities(spec)
	if err != nil {
		return nil, err
	}
	return func(id nodeset.ID) float64 {
		if c, ok := caps[id]; ok {
			return c
		}
		return 1
	}, nil
}

// zipfItemStreams builds one independent Zipfian item stream per worker
// when -zipf-items is on (nil otherwise), so the hottest items draw most
// of the traffic while workers stay deterministic and contention-free.
func zipfItemStreams(cfg config) ([]*workload.Zipf, error) {
	if !cfg.zipfItems {
		return nil, nil
	}
	z, err := workload.NewZipf(uint64(cfg.items), cfg.zipfTheta, cfg.seed)
	if err != nil {
		return nil, err
	}
	return z.Split(cfg.workers)
}

// pickItem chooses worker w's next item: pinned under -disjoint, Zipfian
// under -zipf-items, uniform otherwise.
func pickItem(cfg config, w int, rng *rand.Rand, zipf []*workload.Zipf) int {
	if cfg.disjoint {
		return w % cfg.items
	}
	if zipf != nil {
		return int(zipf[w].Next())
	}
	return rng.Intn(cfg.items)
}

func addOutcomes(dst *outcomes, src outcomes) {
	dst.OK += src.OK
	dst.Unavailable += src.Unavailable
	dst.Conflict += src.Conflict
	dst.TimedOut += src.TimedOut
	dst.Other += src.Other
}

// percentile returns the p-quantile of samples (nearest-rank); zero when
// no samples were collected.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(p * float64(len(samples)-1))
	return samples[idx]
}

// mix64 is the splitmix64 output function, used to derive independent
// per-worker PRNG streams from the base seed.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
