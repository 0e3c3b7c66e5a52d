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
	netw   *transport.Network
	coords [][]*core.Coordinator // [item][node]
}

// setupSim builds cfg.nodes replica nodes on a simulated network. Options
// are core's defaults but for the round timeout; lock leases follow it (4×,
// core's own relation), so operations that wedge each other's quorum locks
// resolve on a short lease instead of stalling the loop.
func setupSim(cfg config, reg *obs.Registry) (*target, error) {
	strategy, err := core.ParseStrategy(cfg.strategy)
	if err != nil {
		return nil, err
	}
	capacity, err := capacityFunc(cfg.capacity)
	if err != nil {
		return nil, err
	}
	tOpts := []transport.Option{transport.WithSeed(cfg.seed), transport.WithObs(reg)}
	if mean := cfg.latency; mean > 0 {
		tOpts = append(tOpts, transport.WithLatency(func(r *rand.Rand) time.Duration {
			return mean/2 + time.Duration(r.Int63n(int64(mean)))
		}))
	}
	cl := &simCluster{netw: transport.NewNetwork(tOpts...)}
	members := nodeset.Range(0, nodeset.ID(cfg.nodes))

	rcfg := replica.Config{LockLease: 4 * callTimeout, Obs: reg, PropagationBatch: cfg.batchProp}
	copts := core.Options{
		CallTimeout: callTimeout,
		Obs:         reg,
		Strategy:    strategy,
		Capacity:    capacity,
		GroupCommit: core.GroupCommitOptions{Enabled: cfg.batch},
		Replica:     rcfg,
	}
	if strategy != core.StrategyHint {
		// One tracker, and for the weighted strategies one engine, across
		// every coordinator of every item: they steer by the same observed
		// load, and an engine each would multiply the background solves by
		// nodes × items.
		copts.Load = core.NewLoadTracker(cl.netw, members, reg)
		if strategy.Weighted() {
			copts.Engine = core.NewStrategyEngine(members, copts.Load, copts)
		}
	}

	nodes := make([]*replica.Node, cfg.nodes)
	for i := range nodes {
		nodes[i] = replica.NewNode(nodeset.ID(i), cl.netw, rcfg)
	}
	t := &target{keys: cfg.items, attempt: cl.attempt, faults: cl, close: func() {
		for _, n := range nodes {
			n.Close()
		}
	}}
	if cfg.slowRead > 0 && cfg.slowNode >= 0 && cfg.slowNode < cfg.nodes {
		// A weak node: every message it serves takes -slow-read longer.
		// Registering over the node's own handler changes service time only.
		inner, delay := nodes[cfg.slowNode].Handler(), cfg.slowRead
		cl.netw.Register(nodeset.ID(cfg.slowNode), func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
			time.Sleep(delay)
			return inner(ctx, from, req)
		})
		fmt.Fprintf(os.Stderr, "loadgen: node %d serves every message %s slower\n", cfg.slowNode, delay)
	}
	initial := make([]byte, itemSize) // one for every replica: they keep it by reference
	for _, name := range daemon.ItemNames(cfg.items) {
		row := make([]*core.Coordinator, cfg.nodes)
		for i, n := range nodes {
			rep, err := n.AddItem(name, members, initial)
			if err != nil {
				t.close()
				return nil, err
			}
			row[i] = core.NewCoordinator(rep, cl.netw, members, copts)
		}
		cl.coords = append(cl.coords, row)
	}
	return t, nil
}

func (cl *simCluster) attempt(ctx context.Context, _, item int, op workload.Op) (uint64, []byte, error) {
	co := cl.coords[item][op.Coordinator]
	if op.Kind == workload.OpRead {
		value, version, err := co.Read(ctx)
		return version, value, err
	}
	version, err := co.Write(ctx, op.Update)
	return version, nil, err
}

func (cl *simCluster) crash(id nodeset.ID) { cl.netw.Crash(id) }

func (cl *simCluster) restart(id nodeset.ID) error {
	cl.netw.Restart(id)
	return nil
}

func (cl *simCluster) checkEpoch(ctx context.Context, item int, from nodeset.ID) {
	_, _ = cl.coords[item][from].CheckEpoch(ctx) // a failed check is retried by the next round
}

// capacityFunc turns -capacity into a load function, nil when the cluster
// is declared homogeneous.
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
