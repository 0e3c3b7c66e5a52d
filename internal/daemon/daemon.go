// Package daemon hosts one coterie replica node as a long-running network
// process: a tcpnet transport serving the node's protocol handler, a
// co-located coordinator per data item, and the capi client API routed
// through a transport.Mux layered over the node's handler — typed client
// messages (Read, Write, CheckEpoch, MapQuery) dispatch to the
// coordinators, and everything else falls through to the replica protocol.
//
// cmd/coteried wraps this package in a main; cmd/loadgen's -net tcp mode
// spawns one daemon process per cluster member and drives them over
// loopback.
//
// # The shard map
//
// A daemon always serves a placement.Map: it partitions all item names into
// Config.Shards independent coteries of RF nodes each (rendezvous hashing
// over the address book), and this process hosts every shard whose coterie
// includes Self. Every object on every node is the one-shard map whose RF
// is the cluster size. Nothing is instantiated up front — a million-item
// keyspace costs nothing until touched:
//
//   - Replicas materialize on first touch, from either side: a client
//     operation arriving here (the co-located coordinator creates the
//     item), or a protocol message from a peer coordinator (the node's
//     auto-create provisioner creates it).
//   - A coordinator — the item's write combiner and layout cache — is
//     built on the item's first client operation here (a peer's protocol
//     message makes only the replica) and kept, like the replica, for the
//     daemon's life. All writers of an item on this node go through its
//     one coordinator, whose group commit merges them.
//
// Operations for shards this node does not own answer StatusWrongShard, and
// every daemon serves the shard map (MapQuery), so a client with a stale
// map self-heals. Each operation's protocol rounds run under a
// transport.WithSteer key derived from the shard, so one client call's
// quorum frames to a given peer share one connection and flush together.
//
// # Process restarts
//
// A daemon keeps no stable storage, so a killed-and-restarted process is
// the paper's recovering replica: Config.Recovering (set by whoever
// respawns it) wipes each item via Amnesia as it is made — the replica
// answers protocol queries flagged as recovering and is excluded from
// quorums until an epoch change readmits it and propagation rebuilds its
// value. The restart also advances every item's operation-ID sequence past
// wall-clock nanoseconds, so OpIDs minted by the new incarnation can never
// collide with pre-crash OpIDs that survivors may still hold in lock tables
// and decision logs.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/placement"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/transport/tcpnet"
)

// Config describes one daemon instance.
type Config struct {
	// Self is the node this process hosts.
	Self nodeset.ID
	// Addrs is the full cluster address book (node ID → host:port),
	// including Self's listen address. Its keys are the nodes the shard
	// map places over.
	Addrs map[nodeset.ID]string
	// ItemSize is every item's initial length: each starts as ItemSize
	// zero bytes on every member of its shard.
	ItemSize int
	// Recovering marks this process as a restart of a crashed instance.
	Recovering bool
	// CallTimeout bounds each protocol RPC round; lock leases follow it
	// (4x) as in the in-process harness.
	CallTimeout time.Duration
	// Strategy is the quorum selection strategy: "hint" (default) or
	// "optimized" (see core.ParseStrategy).
	Strategy string
	// Capacities declares relative service capacities (missing nodes
	// default to 1.0; see CapacityFunc). Nil means a homogeneous cluster.
	// All daemons of one deployment should agree so their solved
	// distributions match.
	Capacities map[nodeset.ID]float64
	// Pipeline is read by nothing: the transport has one call mode. The
	// field remains only because bench/tcp.go still sets it.
	Pipeline bool
	// Obs attaches a metrics registry and a flight recorder, which the
	// admin plane serves.
	Obs bool
	// AdminAddr serves the admin plane on this address: /metrics
	// (Prometheus text, ?format=json), /traces (flight traces, filterable
	// by ?trace=<hex id>), /healthz (readiness + shard ownership), and
	// /debug/pprof. Empty disables it. Without Obs only /healthz and
	// /debug/pprof carry data. ":0" picks a free port; see Daemon.AdminAddr
	// for the bound address.
	AdminAddr string

	// Shards is the number of independent coteries the keyspace is
	// partitioned into (default 1: every item in one coterie).
	Shards int
	// RF is each shard's coterie size (default 3, clamped to the cluster
	// size).
	RF int
	// MapVersion is the shard map version this daemon serves (default 1).
	// All daemons of one deployment must agree on it; bumping it after a
	// membership change is what makes stale clients refresh.
	MapVersion uint64
	// SlowReadDelay injects a service delay before every client read —
	// the induced slow node of the hedging experiments. Zero for off.
	SlowReadDelay time.Duration
}

// Daemon is a running instance. Close shuts it down.
type Daemon struct {
	Net  *tcpnet.Network
	Reg  *obs.Registry
	node *replica.Node
	cfg  Config
	// initial is every item's version-0 value, ItemSize zero bytes: one
	// slice for the whole daemon, which its replicas read and never write.
	initial []byte

	// The map this daemon serves and the coordinators built so far. copts
	// is the construction template for on-demand coordinators.
	pmap  *placement.Map
	copts core.Options
	// coords maps an item's name to its *core.Coordinator. Operations read
	// it without a lock; mu serializes building a missing entry, so each
	// item gets exactly one, and guards live.
	coords     sync.Map
	mu         sync.Mutex
	live       int
	coordBuilt *obs.Counter

	admin *http.Server
	aln   net.Listener
}

func (c Config) withDefaults() Config {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 250 * time.Millisecond
	}
	if c.ItemSize <= 0 {
		c.ItemSize = 256
	}
	if c.Strategy == "" {
		c.Strategy = "hint"
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.RF <= 0 {
		c.RF = 3
	}
	if c.MapVersion == 0 {
		c.MapVersion = 1
	}
	return c
}

// Start builds and starts a daemon: transport, node, shard map, client API,
// admin listener.
func Start(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if _, ok := cfg.Addrs[cfg.Self]; !ok {
		return nil, fmt.Errorf("daemon: no address for self (node %d)", cfg.Self)
	}
	strategy, err := core.ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	var members nodeset.Set
	for id := range cfg.Addrs {
		members.Add(id)
	}
	pmap, err := placement.New(members, cfg.Shards, cfg.RF, cfg.MapVersion)
	if err != nil {
		return nil, err
	}

	reg := obs.Nop
	var topts []tcpnet.Option
	if cfg.Obs {
		reg = obs.New()
		reg.SetFlight(obs.NewFlightRecorder(256))
		topts = append(topts, tcpnet.WithObs(reg))
	}
	tnet := tcpnet.New(cfg.Addrs, topts...)
	rcfg := replica.Config{LockLease: 4 * cfg.CallTimeout, Obs: reg}
	node := replica.NewNode(cfg.Self, tnet, rcfg)
	copts := core.Options{
		CallTimeout: cfg.CallTimeout,
		Replica:     rcfg,
		Obs:         reg,
		Strategy:    strategy,
		Capacity:    CapacityFunc(cfg.Capacities),
	}
	// One tracker and one engine per process: every coordinator this daemon
	// hosts solves with the same measured capacities.
	copts = core.WithSharedEngine(copts, members)
	d := &Daemon{Net: tnet, Reg: reg, node: node, cfg: cfg, copts: copts,
		initial:    make([]byte, cfg.ItemSize),
		pmap:       pmap,
		coordBuilt: reg.Counter("coteried_coord_built_total"),
	}
	// Peer coordinators materialize replicas here on first touch; the
	// provisioner enforces shard ownership so a confused peer cannot plant
	// an item this node does not own.
	node.SetAutoCreate(func(name string) *replica.Item {
		rep, _ := d.provisionReplica(name)
		return rep
	})

	// Client API over the node's protocol handler: typed capi routes plus
	// the node as the default route, re-registered at the node's endpoint.
	mux := transport.NewMux()
	mux.HandleDefault(node.Handler())
	mux.HandleType(capi.Read{}, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		return d.handleRead(ctx, from, req.(capi.Read))
	})
	mux.HandleType(capi.Write{}, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		return d.handleWrite(ctx, from, req.(capi.Write))
	})
	mux.HandleType(capi.CheckEpoch{}, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		return d.handleCheckEpoch(ctx, from, req.(capi.CheckEpoch))
	})
	mux.HandleType(capi.MapQuery{}, func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		return d.handleMapQuery(req.(capi.MapQuery)), nil
	})
	tnet.Register(cfg.Self, mux.Handler())

	if err := tnet.Start(); err != nil {
		node.Close()
		tnet.Close()
		return nil, err
	}
	if cfg.AdminAddr != "" {
		if err := d.startAdmin(cfg.AdminAddr); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// PprofMux returns an http mux serving the net/http/pprof endpoints under
// /debug/pprof/, without touching http.DefaultServeMux. The admin plane
// serves it, and so does loadgen's profiling mode, so both expose the same
// surface (CPU profile, heap, mutex, block, goroutine).
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Map returns the shard map this daemon serves.
func (d *Daemon) Map() *placement.Map { return d.pmap }

// LiveCoordinators reports the daemon's materialized coordinator count (tests and capacity diagnostics).
func (d *Daemon) LiveCoordinators() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live
}

// Item returns this node's replica of the named item, or nil (tests and
// embedding harnesses).
func (d *Daemon) Item(name string) *replica.Item { return d.node.Item(name) }

// Close shuts the daemon down: client API stops, background protocol work
// stops, every connection dies.
func (d *Daemon) Close() {
	if d.admin != nil {
		d.admin.Close()
		d.aln.Close()
	}
	d.node.Close()
	d.Net.Close()
}

// status maps a coordinator error onto the client API's taxonomy. The
// zero Detail for OK keeps replies compact.
func status(err error) (capi.Status, string) {
	switch {
	case err == nil:
		return capi.StatusOK, ""
	case errors.Is(err, core.ErrConflict):
		return capi.StatusConflict, err.Error()
	case errors.Is(err, core.ErrUnavailable):
		return capi.StatusUnavailable, err.Error()
	default:
		return capi.StatusError, err.Error()
	}
}

// provisionReplica materializes this node's replica of an item,
// refusing items whose shard this node does not own. A recovering daemon
// makes every replica amnesiac, its operation sequence moved past anything
// the crashed incarnation issued, before the replica is published: neither
// a peer's message nor this daemon's own coordinator can see it as a
// current version-0 replica, and it answers as recovering until an epoch
// change readmits it.
func (d *Daemon) provisionReplica(item string) (*replica.Item, error) {
	shard := d.pmap.ShardOf(item)
	members := d.pmap.Members(shard)
	if !members.Contains(d.cfg.Self) {
		return nil, fmt.Errorf("daemon: shard %d of %q not owned under map v%d", shard, item, d.pmap.Version())
	}
	var init func(*replica.Item)
	if d.cfg.Recovering {
		init = recoverReplica
	}
	rep, _, err := d.node.EnsureItem(item, members, d.initial, init)
	return rep, err
}

// recoverReplica is a restarted daemon's creation-time policy: the replica
// has lost its stable state, and its operation IDs must not repeat ones the
// crashed incarnation left in survivors' lock tables and decision logs.
func recoverReplica(rep *replica.Item) {
	rep.Amnesia()
	rep.AdvanceOpSeq(uint64(time.Now().UnixNano()))
}

// coordFor resolves the coordinator serving item, building it on the
// item's first client operation here. The returned context carries the
// shard's steering key.
func (d *Daemon) coordFor(ctx context.Context, item string) (*core.Coordinator, context.Context, capi.Status, string) {
	shard := d.pmap.ShardOf(item)
	if !d.pmap.Owns(d.cfg.Self, shard) {
		return nil, ctx, capi.StatusWrongShard,
			fmt.Sprintf("shard %d not owned by node %d under map v%d", shard, d.cfg.Self, d.pmap.Version())
	}
	ctx = transport.WithSteer(ctx, uint64(shard))
	if co, ok := d.coords.Load(item); ok {
		return co.(*core.Coordinator), ctx, capi.StatusOK, ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if co, ok := d.coords.Load(item); ok {
		return co.(*core.Coordinator), ctx, capi.StatusOK, ""
	}
	rep, err := d.provisionReplica(item)
	if err != nil {
		return nil, ctx, capi.StatusError, err.Error()
	}
	co := core.NewCoordinator(rep, d.Net, d.pmap.Members(shard), d.copts)
	d.coords.Store(item, co)
	d.live++
	d.coordBuilt.Inc()
	return co, ctx, capi.StatusOK, ""
}

// handleMapQuery serves the daemon's shard map.
func (d *Daemon) handleMapQuery(capi.MapQuery) capi.MapReply {
	return capi.MapReply{
		Version:   d.pmap.Version(),
		NumShards: uint32(d.pmap.NumShards()),
		RF:        uint32(d.pmap.RF()),
		Nodes:     d.pmap.Nodes(),
	}
}

func (d *Daemon) handleRead(ctx context.Context, from nodeset.ID, req capi.Read) (transport.Message, error) {
	if d.cfg.SlowReadDelay > 0 {
		time.Sleep(d.cfg.SlowReadDelay)
	}
	co, ctx, st, detail := d.coordFor(ctx, req.Item)
	if co == nil {
		return capi.ReadReply{Status: st, Detail: detail}, nil
	}
	value, version, err := co.Read(ctx)
	st, detail = status(err)
	return capi.ReadReply{Status: st, Version: version, Value: value, Detail: detail}, nil
}

func (d *Daemon) handleWrite(ctx context.Context, from nodeset.ID, req capi.Write) (transport.Message, error) {
	co, ctx, st, detail := d.coordFor(ctx, req.Item)
	if co == nil {
		return capi.WriteReply{Status: st, Detail: detail}, nil
	}
	version, err := co.Write(ctx, req.Update)
	st, detail = status(err)
	return capi.WriteReply{Status: st, Version: version, Detail: detail}, nil
}

func (d *Daemon) handleCheckEpoch(ctx context.Context, from nodeset.ID, req capi.CheckEpoch) (transport.Message, error) {
	co, ctx, st, detail := d.coordFor(ctx, req.Item)
	if co == nil {
		return capi.CheckReply{Status: st, Detail: detail}, nil
	}
	res, err := co.CheckEpoch(ctx)
	st, detail = status(err)
	return capi.CheckReply{Status: st, Changed: res.Changed, EpochNum: res.EpochNum, Detail: detail}, nil
}
