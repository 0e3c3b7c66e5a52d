package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
)

// built is what one in-process builder produced, seen the same way for all
// of them: every coordinator of every item, the tracker the builder made,
// and how to tear it down.
type built struct {
	coords []*Coordinator
	load   *LoadTracker
	close  func()
}

// TestBuildersShareOneEngine holds NewCluster, NewGroup and
// NewElectedCluster to one construction under StrategyOptimized: every
// coordinator of every item samples the same StrategyEngine over the
// builder's one LoadTracker, a mixed run of a second solves about as often
// as the one-item cluster's (the tick, not nodes × items), and the network
// records into Options.Obs like the coordinators and replicas do.
func TestBuildersShareOneEngine(t *testing.T) {
	const (
		nodes    = 9
		interval = 20 * time.Millisecond
		run      = time.Second
	)
	row := func(coordinator func(item string, id nodeset.ID) *Coordinator, items ...string) []*Coordinator {
		var coords []*Coordinator
		for _, item := range items {
			for id := range nodeset.ID(nodes) {
				coords = append(coords, coordinator(item, id))
			}
		}
		return coords
	}
	builders := []struct {
		name  string
		build func(Options) (built, error)
	}{
		{"cluster", func(o Options) (built, error) {
			c, err := NewCluster(nodes, "item", nil, o)
			if err != nil {
				return built{}, err
			}
			one := func(_ string, id nodeset.ID) *Coordinator { return c.Coordinator(id) }
			return built{row(one, "item"), c.opts.Load, c.Close}, nil
		}},
		{"group", func(o Options) (built, error) {
			items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
			g, err := NewGroup(nodes, items, nil, o)
			if err != nil {
				return built{}, err
			}
			return built{row(g.Coordinator, items...), g.opts.Load, g.Close}, nil
		}},
		{"elected", func(o Options) (built, error) {
			ec, err := NewElectedCluster(nodes, "item", nil, o)
			if err != nil {
				return built{}, err
			}
			one := func(_ string, id nodeset.ID) *Coordinator { return ec.Coordinator(id) }
			return built{row(one, "item"), ec.opts.Load, ec.Close}, nil
		}},
	}

	// Build all three, then drive them side by side for the same second.
	regs := make([]*obs.Registry, len(builders))
	runs := make([]built, len(builders))
	for i, b := range builders {
		regs[i] = obs.New()
		opts := fastOptions()
		opts.Strategy = StrategyOptimized
		opts.OptimizeInterval = interval
		opts.Obs = regs[i]
		bt, err := b.build(opts)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		defer bt.close()
		runs[i] = bt
		engines := map[*StrategyEngine]bool{}
		for _, co := range bt.coords {
			engines[co.strat] = true
		}
		if eng := bt.coords[0].strat; len(engines) != 1 || eng == nil || bt.load == nil || eng.load != bt.load {
			t.Errorf("%s: %d coordinators sample %d strategy engines (want one, on the builder's tracker)", b.name, len(bt.coords), len(engines))
		}
	}

	// A mixed run from random coordinators of random items.
	ctx, cancel := context.WithTimeout(context.Background(), 10*run)
	defer cancel()
	errs := make([]error, len(builders))
	var wg sync.WaitGroup
	for i, bt := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i) + 1))
			for end := time.Now().Add(run); time.Now().Before(end) && errs[i] == nil; {
				co := bt.coords[r.Intn(len(bt.coords))]
				if r.Intn(2) == 0 {
					_, _, errs[i] = co.Read(ctx)
				} else {
					_, errs[i] = co.Write(ctx, replica.Update{Offset: r.Intn(8), Data: []byte{byte(r.Int())}})
				}
			}
		}()
	}
	wg.Wait()

	solves := make([]uint64, len(builders))
	for i, b := range builders {
		if errs[i] != nil {
			t.Errorf("%s: %v", b.name, errs[i])
		}
		solves[i] = regs[i].Counter("core_strategy_recomputes_total").Load()
		var transport int64
		for _, c := range regs[i].Snapshot().Counters {
			if strings.HasPrefix(c.Name, "transport_") {
				transport += c.Value
			}
		}
		t.Logf("%s: %d solves, %d transport counts", b.name, solves[i], transport)
		if transport == 0 {
			t.Errorf("%s: no transport_* counter moved: the network does not record into Options.Obs", b.name)
		}
	}
	if solves[0] == 0 {
		t.Fatal("the one-item cluster never solved")
	}
	for i, b := range builders[1:] {
		if got := solves[i+1]; got > 2*solves[0] {
			t.Errorf("%s solved %d times in %v, the one-item cluster %d: want at most twice as often", b.name, got, run, solves[0])
		}
	}
}
