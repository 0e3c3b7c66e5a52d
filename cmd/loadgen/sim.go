package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"coterie/internal/core"
	"coterie/internal/coterie"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/workload"
)

// simCluster is the in-process mode: every node replicates every item and
// hosts a coordinator for it, like the paper's symmetric deployment.
type simCluster struct {
	*core.Group
	coords [][]*core.Coordinator // [key][node], key i being itemNames' i-th
}

// itemNames returns the item names item-0..item-(n-1) of the sim and tcp
// modes, key i being the i-th.
func itemNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("item-%d", i)
	}
	return names
}

// setupSim builds a core.Group of cfg.nodes nodes and cfg.items items on a
// simulated network. Options are core's defaults but for the round timeout;
// lock leases follow it (4×, core's own relation), so operations that wedge
// each other's quorum locks resolve on a short lease instead of stalling the
// loop.
func setupSim(cfg config, reg *obs.Registry) (*target, error) {
	strategy, err := core.ParseStrategy(cfg.strategy)
	if err != nil {
		return nil, err
	}
	var capacity coterie.CapacityFunc
	if cfg.capacity != "" {
		caps, err := daemon.ParseCapacities(cfg.capacity)
		if err != nil {
			return nil, err
		}
		capacity = daemon.CapacityFunc(caps)
	}
	tOpts := []transport.Option{transport.WithSeed(cfg.seed)}
	if mean := cfg.latency; mean > 0 {
		tOpts = append(tOpts, transport.WithLatency(func(r *rand.Rand) time.Duration {
			return mean/2 + time.Duration(r.Int63n(int64(mean)))
		}))
	}
	names := itemNames(cfg.items)
	shared := make([]byte, itemSize) // one for every replica: they keep it by reference
	initial := make(map[string][]byte, len(names))
	for _, name := range names {
		initial[name] = shared
	}
	g, err := core.NewGroup(cfg.nodes, names, initial, core.Options{
		CallTimeout: callTimeout,
		Obs:         reg,
		Strategy:    strategy,
		Capacity:    capacity,
		GroupCommit: cfg.batch,
		Replica:     replica.Config{LockLease: 4 * callTimeout, Obs: reg},
		Transport:   tOpts,
	})
	if err != nil {
		return nil, err
	}
	// Resolved by name once: the group sorts its items, so "item-10" sits
	// before "item-2" there, and the operation path indexes this table.
	cl := &simCluster{Group: g, coords: make([][]*core.Coordinator, len(names))}
	for key, name := range names {
		for id := range cfg.nodes {
			cl.coords[key] = append(cl.coords[key], g.Coordinator(name, nodeset.ID(id)))
		}
	}
	if cfg.slowRead > 0 && cfg.slowNode >= 0 && cfg.slowNode < cfg.nodes {
		// A weak node: every message it serves takes -slow-read longer.
		// Registering over the node's own handler changes service time only.
		inner, delay := g.Node(nodeset.ID(cfg.slowNode)).Handler(), cfg.slowRead
		g.Net.Register(nodeset.ID(cfg.slowNode), func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
			time.Sleep(delay)
			return inner(ctx, from, req)
		})
		fmt.Fprintf(os.Stderr, "loadgen: node %d serves every message %s slower\n", cfg.slowNode, delay)
	}
	return &target{keys: cfg.items, attempt: cl.attempt, faults: cl, close: g.Close}, nil
}

func (cl *simCluster) attempt(ctx context.Context, _, item int, op workload.Op) (uint64, []byte, error) {
	co := cl.coords[item][route(op.Coordinator, len(cl.coords[item]), cl.Net.IsUp)]
	if op.Kind == workload.OpRead {
		value, version, err := co.Read(ctx)
		return version, value, err
	}
	version, err := co.Write(ctx, op.Update)
	return version, nil, err
}

func (cl *simCluster) crash(id nodeset.ID) { cl.Crash(id) }

func (cl *simCluster) restart(id nodeset.ID) error {
	cl.Restart(id)
	return nil
}

func (cl *simCluster) checkEpoch(ctx context.Context, item int, from nodeset.ID) {
	_, _ = cl.coords[item][from].CheckEpoch(ctx) // a failed check is retried by the next round
}
