// Command loadgen drives a cluster by hand and checks what it did. It sets
// a cluster up in one of three ways, runs K workers against it for a while,
// verifies every recorded history for one-copy serializability and prints
// counts, latencies and metrics as one JSON object on stdout (a readable
// summary goes to stderr). It is a smoke and exploration tool; measurements
// that are compared across commits come from bench/ (BENCHMARK.json).
//
//   - -net sim (default): N in-process nodes on the simulated network, every
//     node replicating -items items and hosting a coordinator for each.
//   - -net tcp: one coteried process per node (this binary re-executed),
//     each serving a one-shard map that puts every item on every node,
//     driven over loopback through the capi messages; -churn SIGKILLs and
//     respawns daemons as recovering replicas.
//   - -shards S: the same daemons serving a keyspace hashed over S coteries of
//     -rf replicas, driven through the smart capi.Client (cached shard map,
//     retries, optional hedged reads); -sweep visits every key at least once.
//
// The three modes differ only in how they set up (sim.go, cluster.go) and in
// what one attempt does; the worker loop, the accounting, the history check
// and the report (drive.go) are shared. Operations come from
// workload.Generator, items and keys from workload.Zipf (0.99) unless
// -disjoint pins worker w to key w. The loop is closed unless -rate fixes an
// arrival rate, in which case latency is measured from each operation's
// scheduled arrival and backlog shows in the tail.
//
//	go run ./cmd/loadgen -nodes 9 -items 8 -workers 8 -duration 3s
//	go run ./cmd/loadgen -latency 200us -churn 300ms -metrics :9090
//	go run ./cmd/loadgen -net tcp -nodes 3 -items 2 -workers 4 -churn 800ms
//	go run ./cmd/loadgen -shards 8 -rf 2 -nodes 4 -keyspace 2000 -sweep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"coterie/internal/daemon"
	"coterie/internal/obs"
	"coterie/internal/obs/expose"
)

const (
	itemSize    = 256                    // bytes per item; workload.Config's default
	opTimeout   = 5 * time.Second        // one client operation, retries included
	callTimeout = 250 * time.Millisecond // one protocol round; lock leases are 4× this
)

type config struct {
	nodes    int
	items    int
	workers  int
	readFrac float64
	duration time.Duration
	seed     int64
	disjoint bool
	rate     float64
	affinity bool
	sweep    bool
	stride   int

	netMode     string
	latency     time.Duration
	churn       time.Duration
	metricsAddr string
	pprofPort   int

	batch    bool
	strategy string
	capacity string
	slowNode int
	slowRead time.Duration

	shards      int
	rf          int
	keyspace    int
	hedge       bool
	traceSample int
}

// newFlags declares loadgen's flags on fs; the returned config holds their
// values once fs has parsed a command line.
func newFlags(fs *flag.FlagSet) *config {
	cfg := new(config)
	fs.IntVar(&cfg.nodes, "nodes", 9, "cluster nodes (replicas per item outside sharded mode)")
	fs.IntVar(&cfg.items, "items", 8, "independent data items (sim and tcp modes)")
	fs.IntVar(&cfg.workers, "workers", 8, "client goroutines")
	fs.Float64Var(&cfg.readFrac, "read-frac", 0.5, "fraction of operations that are reads")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "how long the workers issue operations")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated stream")
	fs.BoolVar(&cfg.disjoint, "disjoint", false, "pin worker w to key w mod keys: no two workers conflict unless they share one")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in ops/sec across all workers (0 = closed loop)")
	fs.BoolVar(&cfg.affinity, "affinity", false, "send every write of an item to one coordinator so group commit can merge them (sim and tcp modes; the sharded client always does)")
	fs.BoolVar(&cfg.sweep, "sweep", false, "also visit every key in order, past -duration if need be; exit non-zero if one was missed")
	fs.IntVar(&cfg.stride, "check-stride", 1, "record a one-copy history for every stride-th key plus the 1024 hottest (bounds checker memory on million-key runs)")
	fs.StringVar(&cfg.netMode, "net", "sim", "data plane: sim (in-process simulated network) or tcp (spawned coteried daemons on loopback)")
	fs.DurationVar(&cfg.latency, "latency", 0, "sim mode: mean injected network latency per call")
	fs.DurationVar(&cfg.churn, "churn", 0, "crash and restart a node, with epoch checks in between, at this cadence (tcp mode: SIGKILL and respawn)")
	fs.StringVar(&cfg.metricsAddr, "metrics", "", "serve this process's live metrics over HTTP on this address (e.g. :9090)")
	fs.IntVar(&cfg.pprofPort, "pprof", 0, "serve net/http/pprof on 127.0.0.1:PORT (spawned daemon i's admin plane, pprof included, on PORT+1+i)")
	fs.BoolVar(&cfg.batch, "batch", false, "enable the group-commit write combiner")
	fs.StringVar(&cfg.strategy, "strategy", "hint", "quorum selection: hint or optimized")
	fs.StringVar(&cfg.capacity, "capacity", "", "declared relative node capacities, id=weight,... (unlisted nodes are 1.0)")
	fs.IntVar(&cfg.slowNode, "slow-node", -1, "node to slow down by -slow-read (-1 = none)")
	fs.DurationVar(&cfg.slowRead, "slow-read", 0, "delay added at -slow-node (sim: every message it serves; daemons: every client read)")
	fs.IntVar(&cfg.shards, "shards", 0, "shard the keyspace over this many coteries and drive it through capi.Client (implies -net tcp)")
	fs.IntVar(&cfg.rf, "rf", 0, "sharded mode: replicas per shard (0 = daemon default)")
	fs.IntVar(&cfg.keyspace, "keyspace", 1_000_000, "sharded mode: distinct keys")
	fs.BoolVar(&cfg.hedge, "hedge", false, "sharded mode: hedge slow reads to another shard member")
	fs.IntVar(&cfg.traceSample, "trace-sample", 0, "sharded mode: sample 1 in N operations into a cross-node trace (0 = off)")
	return cfg
}

func main() {
	// Self-spawn: `loadgen coteried <flags>` runs one daemon, so the tcp
	// modes need no second binary on the machine they run on.
	if len(os.Args) > 1 && os.Args[1] == "coteried" {
		if err := daemon.RunMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "coteried:", err)
			os.Exit(1)
		}
		return
	}
	cfg := newFlags(flag.CommandLine)
	flag.Parse()
	res, err := run(context.Background(), *cfg)
	if res != nil {
		if encErr := json.NewEncoder(os.Stdout).Encode(res); err == nil {
			err = encErr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// target is a cluster one of the modes has set up: the key space the shared
// loop draws from and how one operation on one key is attempted there.
type target struct {
	keys    int
	attempt attemptFunc
	faults  faults        // what -churn injects
	extras  func(*result) // the mode's own report fields, if any
	close   func()
}

// run sets the cluster up, drives it and reports. The error is non-nil when
// the run could not be made (and then there is no result), when a history is
// not one-copy serializable or when a sweep missed a key.
func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.nodes <= 0 || cfg.items <= 0 || cfg.workers <= 0 || cfg.keyspace <= 0 || cfg.stride <= 0 {
		return nil, fmt.Errorf("nodes, items, workers, keyspace and check-stride must be positive")
	}
	if cfg.churn > 0 && cfg.shards > 0 {
		return nil, fmt.Errorf("-churn is not supported with -shards (shard maps do not version node churn yet)")
	}
	reg := obs.New()
	reg.SetFlight(obs.NewFlightRecorder(256))
	if cfg.metricsAddr != "" {
		stop, err := serveHTTP(cfg.metricsAddr, "metrics (?format=json, ?format=traces)", expose.Handler(reg))
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	if cfg.pprofPort > 0 {
		runtime.SetMutexProfileFraction(100)
		stop, err := serveHTTP(fmt.Sprintf("127.0.0.1:%d", cfg.pprofPort), "pprof under /debug/pprof/", daemon.PprofMux())
		if err != nil {
			return nil, err
		}
		defer stop()
	}

	var t *target
	var err error
	switch {
	case cfg.shards > 0:
		t, err = setupShard(cfg, reg)
	case cfg.netMode == "tcp":
		t, err = setupTCP(cfg, reg)
	case cfg.netMode == "sim":
		t, err = setupSim(cfg, reg)
	default:
		err = fmt.Errorf("unknown -net %q (want sim or tcp)", cfg.netMode)
	}
	if err != nil {
		return nil, err
	}
	defer t.close()

	stats, err := drive(ctx, cfg, t)
	if err != nil {
		return nil, err
	}
	res := report(stats, reg)
	if t.extras != nil {
		t.extras(&res)
	}
	switch {
	case res.OneCopyViolations > 0:
		err = fmt.Errorf("%d one-copy serializability violations", res.OneCopyViolations)
	case cfg.sweep && res.DistinctKeys < t.keys:
		err = fmt.Errorf("sweep touched %d of %d keys", res.DistinctKeys, t.keys)
	}
	return &res, err
}

// serveHTTP serves h on addr until the returned stop is called.
func serveHTTP(addr, what string, h http.Handler) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns when stop closes the server
	fmt.Fprintf(os.Stderr, "loadgen: serving %s on http://%s/\n", what, ln.Addr())
	return func() { srv.Close() }, nil
}
