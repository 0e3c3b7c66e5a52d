package daemon

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coterie/internal/nodeset"
)

// ParseFlags parses a coteried command line into a Config. It is shared
// by cmd/coteried and cmd/loadgen's self-spawned `coteried` subcommand so
// the two always accept identical flags.
func ParseFlags(args []string) (Config, error) {
	var (
		cfg      Config
		nodeID   int
		cluster  string
		items    int
		capacity string
	)
	fs := flag.NewFlagSet("coteried", flag.ContinueOnError)
	fs.IntVar(&nodeID, "node", 0, "node ID this process hosts")
	fs.StringVar(&cluster, "cluster", "", "address book: id=host:port,id=host:port,...")
	fs.IntVar(&items, "items", 1, "replicated data items (named item-0..item-N-1)")
	fs.IntVar(&cfg.ItemSize, "item-size", 256, "logical item size in bytes")
	fs.BoolVar(&cfg.Recovering, "recovering", false, "rejoin as a recovering replica (process restart after crash)")
	fs.DurationVar(&cfg.CallTimeout, "call-timeout", 250*time.Millisecond, "per-RPC-round timeout (also scales lock leases)")
	fs.StringVar(&cfg.Strategy, "strategy", "hint", "quorum selection strategy: hint, load, optimized or read-dominant")
	fs.StringVar(&capacity, "capacity", "", "relative node capacities for weighted strategies: id=weight,... (unlisted nodes are 1.0)")
	fs.BoolVar(&cfg.GroupCommit.Enabled, "batch", false, "enable the group-commit write combiner")
	fs.IntVar(&cfg.GroupCommit.MaxBatch, "batch-max", 0, "max writes merged per batched round (0 = default)")
	fs.IntVar(&cfg.GroupCommit.MaxQueue, "batch-queue", 0, "combiner queue depth (0 = default)")
	fs.BoolVar(&cfg.BatchProp, "batch-prop", false, "batch stale propagation per target node")
	fs.IntVar(&cfg.PoolSize, "pool", 0, "connections per peer (0 = default)")
	fs.BoolVar(&cfg.Obs, "obs", true, "attach the observability registry")
	fs.StringVar(&cfg.MetricsAddr, "metrics", "", "serve live metrics over HTTP on this address")
	fs.StringVar(&cfg.PprofAddr, "pprof", "", "serve net/http/pprof profiling on this address")
	fs.StringVar(&cfg.AdminAddr, "admin", "", "serve the admin plane (/metrics /traces /healthz /debug/pprof) on this address")
	fs.IntVar(&cfg.Shards, "shards", 0, "serve a sharded keyspace of this many coteries (0 = fixed -items list)")
	fs.IntVar(&cfg.RF, "rf", 0, "replicas per shard in sharded mode (0 = default 3, clamped to cluster size)")
	fs.Uint64Var(&cfg.MapVersion, "map-version", 0, "shard map version served to clients (0 = default 1)")
	fs.IntVar(&cfg.MaxCoords, "max-coords", 0, "live coordinator cap in sharded mode (0 = default 4096)")
	fs.DurationVar(&cfg.SlowReadDelay, "slow-read", 0, "inject this service delay before every client read (tail-latency experiments)")
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if cluster == "" {
		return Config{}, fmt.Errorf("-cluster is required")
	}
	addrs, err := ParseCluster(cluster)
	if err != nil {
		return Config{}, err
	}
	cfg.Self = nodeset.ID(nodeID)
	cfg.Addrs = addrs
	cfg.Items = ItemNames(items)
	if capacity != "" {
		caps, err := ParseCapacities(capacity)
		if err != nil {
			return Config{}, err
		}
		cfg.Capacities = caps
	}
	return cfg, nil
}

// ParseCapacities parses "0=1.0,4=0.25" into a capacity map for the
// weighted quorum strategies. Weights must be positive; nodes not listed
// default to 1.0 at use sites.
func ParseCapacities(s string) (map[nodeset.ID]float64, error) {
	caps := make(map[nodeset.ID]float64)
	for _, part := range strings.Split(s, ",") {
		id, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -capacity entry %q (want id=weight)", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad node ID %q in -capacity", id)
		}
		f, err := strconv.ParseFloat(w, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad capacity %q for node %s (want positive number)", w, id)
		}
		caps[nodeset.ID(n)] = f
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("empty -capacity")
	}
	return caps, nil
}

// FormatCapacities renders a capacity map back into -capacity syntax.
func FormatCapacities(caps map[nodeset.ID]float64) string {
	ids := make([]int, 0, len(caps))
	for id := range caps {
		ids = append(ids, int(id))
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d=%g", id, caps[nodeset.ID(id)])
	}
	return strings.Join(parts, ",")
}

// ParseCluster parses "0=127.0.0.1:7000,1=127.0.0.1:7001" into an address
// book.
func ParseCluster(s string) (map[nodeset.ID]string, error) {
	addrs := make(map[nodeset.ID]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -cluster entry %q (want id=host:port)", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad node ID %q in -cluster", id)
		}
		addrs[nodeset.ID(n)] = addr
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("empty -cluster")
	}
	return addrs, nil
}

// FormatCluster renders an address book back into -cluster syntax.
func FormatCluster(addrs map[nodeset.ID]string) string {
	ids := make([]int, 0, len(addrs))
	for id := range addrs {
		ids = append(ids, int(id))
	}
	// Small n; insertion sort avoids importing sort for one call site.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d=%s", id, addrs[nodeset.ID(id)])
	}
	return strings.Join(parts, ",")
}

// ItemNames returns the canonical item names item-0..item-(n-1) used by
// every harness in this repo.
func ItemNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("item-%d", i)
	}
	return names
}

// RunMain is the whole coteried entry point: parse flags, start, announce
// readiness on stdout, serve until SIGINT/SIGTERM.
func RunMain(args []string) error {
	cfg, err := ParseFlags(args)
	if err != nil {
		return err
	}
	d, err := Start(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	// The READY line stays for spawners that cannot reach the admin plane
	// (it is the fallback when -admin is off); with -admin the bound admin
	// address follows so a spawner using ":0" learns the real port.
	if a := d.AdminAddr(); a != "" {
		fmt.Printf("READY %d %s admin=%s\n", cfg.Self, cfg.Addrs[cfg.Self], a)
	} else {
		fmt.Printf("READY %d %s\n", cfg.Self, cfg.Addrs[cfg.Self])
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	return nil
}
