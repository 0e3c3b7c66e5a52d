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

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
)

// ParseFlags parses a coteried command line into a Config. It is shared
// by cmd/coteried and cmd/loadgen's self-spawned `coteried` subcommand so
// the two always accept identical flags.
func ParseFlags(args []string) (Config, error) {
	fs := flag.NewFlagSet("coteried", flag.ContinueOnError)
	f := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if f.cluster == "" {
		return Config{}, fmt.Errorf("-cluster is required")
	}
	addrs, err := ParseCluster(f.cluster)
	if err != nil {
		return Config{}, err
	}
	cfg := f.cfg
	cfg.Self = nodeset.ID(f.node)
	cfg.Addrs = addrs
	if f.capacity != "" {
		caps, err := ParseCapacities(f.capacity)
		if err != nil {
			return Config{}, err
		}
		cfg.Capacities = caps
	}
	return cfg, nil
}

// cliFlags holds what coteried's flags set: Config fields directly, and
// the three values ParseFlags turns into Config fields.
type cliFlags struct {
	cfg      Config
	node     int
	cluster  string
	capacity string
}

// newFlags declares coteried's flags on fs.
func newFlags(fs *flag.FlagSet) *cliFlags {
	f := new(cliFlags)
	cfg := &f.cfg
	fs.IntVar(&f.node, "node", 0, "node ID this process hosts")
	fs.StringVar(&f.cluster, "cluster", "", "address book: id=host:port,id=host:port,...")
	fs.IntVar(&cfg.ItemSize, "item-size", 256, "logical item size in bytes")
	fs.BoolVar(&cfg.Recovering, "recovering", false, "rejoin as a recovering replica (process restart after crash)")
	fs.DurationVar(&cfg.CallTimeout, "call-timeout", 250*time.Millisecond, "per-RPC-round timeout (also scales lock leases)")
	fs.StringVar(&cfg.Strategy, "strategy", "hint", "quorum selection strategy: hint or optimized")
	fs.StringVar(&f.capacity, "capacity", "", "declared relative node capacities: id=weight,... (unlisted nodes are 1.0)")
	fs.BoolVar(&cfg.GroupCommit, "batch", false, "enable the group-commit write combiner")
	fs.BoolVar(&cfg.Obs, "obs", true, "attach the observability registry")
	fs.StringVar(&cfg.AdminAddr, "admin", "", "serve the admin plane (/metrics /traces /healthz /debug/pprof) on this address")
	fs.IntVar(&cfg.Shards, "shards", 1, "partition the keyspace into this many coteries")
	fs.IntVar(&cfg.RF, "rf", 0, "replicas per shard (0 = default 3, clamped to cluster size)")
	fs.Uint64Var(&cfg.MapVersion, "map-version", 0, "shard map version served to clients (0 = default 1)")
	fs.IntVar(&cfg.MaxCoords, "max-coords", 0, "live coordinator cap (0 = default 4096)")
	fs.DurationVar(&cfg.SlowReadDelay, "slow-read", 0, "inject this service delay before every client read (tail-latency experiments)")
	return f
}

// ParseCapacities parses "0=1.0,4=0.25" into a map of declared
// capacities. Weights must be positive; nodes not listed are 1.0
// (CapacityFunc).
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

// CapacityFunc turns a capacity map into core.Options.Capacity: a listed
// node's weight, 1.0 for any other, nil for an empty map (a homogeneous
// cluster).
func CapacityFunc(caps map[nodeset.ID]float64) coterie.CapacityFunc {
	if len(caps) == 0 {
		return nil
	}
	return func(id nodeset.ID) float64 {
		if c, ok := caps[id]; ok {
			return c
		}
		return 1
	}
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
