package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/core"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/workload"
)

// testConfig is the flags' defaults with a short run over two workers.
func testConfig(t *testing.T, args ...string) config {
	t.Helper()
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	cfg := newFlags(fs)
	if err := fs.Parse(append([]string{"-workers", "2", "-duration", "100ms"}, args...)); err != nil {
		t.Fatal(err)
	}
	return *cfg
}

// fakeStore is an attempt that counts its calls and fails some of them,
// each in a way the accounting tells apart.
type fakeStore struct{ attempts atomic.Int64 }

func (f *fakeStore) attempt(_ context.Context, _, _ int, op workload.Op) (uint64, []byte, error) {
	n := f.attempts.Add(1)
	switch {
	case n%7 == 0:
		return 0, nil, core.ErrUnavailable
	case op.Kind == workload.OpWrite && n%5 == 0:
		return 0, nil, fmt.Errorf("lost the lock round: %w", core.ErrConflict)
	case n%11 == 0:
		return 0, nil, errors.New("connection reset")
	}
	return uint64(n), nil, nil
}

func TestEveryAttemptIsCountedOnce(t *testing.T) {
	cfg := testConfig(t)
	f := new(fakeStore)
	rs, err := drive(context.Background(), cfg, &target{keys: 8, attempt: f.attempt})
	if err != nil {
		t.Fatal(err)
	}
	if rs.reads == 0 || rs.writes == 0 || rs.conflicts == 0 || rs.failures == 0 {
		t.Fatalf("reads %d, writes %d, conflicts %d, failures %d: the fake produces all four", rs.reads, rs.writes, rs.conflicts, rs.failures)
	}
	if got, want := rs.reads+rs.writes+rs.conflicts+rs.failures, int(f.attempts.Load()); got != want {
		t.Errorf("reads+writes+conflicts+failures = %d, attempts = %d", got, want)
	}
	out := rs.readOut
	out.merge(rs.writeOut)
	if got, want := out.OK+out.Unavailable+out.Conflict+out.TimedOut+out.Other, int(f.attempts.Load()); got != want {
		t.Errorf("outcomes sum to %d, attempts = %d", got, want)
	}
	if out.OK != rs.reads+rs.writes || out.Conflict != rs.conflicts || out.Unavailable+out.Other+out.TimedOut != rs.failures {
		t.Errorf("outcomes %+v against reads %d, writes %d, conflicts %d, failures %d", out, rs.reads, rs.writes, rs.conflicts, rs.failures)
	}
	if len(rs.writeLat) != rs.writes || !slices.IsSorted(rs.writeLat) {
		t.Errorf("%d write latencies (sorted: %v) for %d writes", len(rs.writeLat), slices.IsSorted(rs.writeLat), rs.writes)
	}
}

// A write that fails is recorded as possibly applied unless it is a clean
// abort, which the history does not mention.
func TestFailedWritesInTheHistory(t *testing.T) {
	cfg := testConfig(t, "-read-frac", "0", "-workers", "1")
	var n int
	attempt := func(_ context.Context, _, _ int, _ workload.Op) (uint64, []byte, error) {
		n++
		switch n % 3 {
		case 0:
			return 0, nil, fmt.Errorf("refused: %w", core.ErrConflict)
		case 1:
			return 0, nil, core.ErrUnavailable
		}
		return uint64(n), nil, nil
	}
	rs, err := drive(context.Background(), cfg, &target{keys: 1, attempt: attempt})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[onecopy.Kind]int{}
	for _, e := range rs.recs.get(0).Events() {
		kinds[e.Kind]++
	}
	if kinds[onecopy.KindWrite] != rs.writes || kinds[onecopy.KindMaybeWrite] != rs.failures || rs.failures == 0 {
		t.Errorf("history %v for %d writes, %d failures", kinds, rs.writes, rs.failures)
	}
	if recorded := kinds[onecopy.KindWrite] + kinds[onecopy.KindMaybeWrite]; rs.conflicts == 0 || recorded+rs.conflicts != n {
		t.Errorf("%d events recorded, %d conflicts, %d attempts: a conflict must not be recorded", recorded, rs.conflicts, n)
	}
}

// Under -rate an operation's latency runs from its scheduled arrival: one
// worker that needs 5 ms for an operation due every millisecond falls
// further behind with each one, and the samples say so.
func TestOpenLoopLatencyIsFromScheduledArrival(t *testing.T) {
	const service = 5 * time.Millisecond
	attempt := func(context.Context, int, int, workload.Op) (uint64, []byte, error) {
		time.Sleep(service)
		return 1, nil, nil
	}
	last := func(args ...string) time.Duration {
		cfg := testConfig(t, append(args, "-workers", "1", "-read-frac", "1", "-check-stride", "2000")...)
		rs, err := drive(context.Background(), cfg, &target{keys: 2000, attempt: attempt})
		if err != nil {
			t.Fatal(err)
		}
		if rs.reads < 5 {
			t.Fatalf("%d reads in 100 ms at 5 ms each", rs.reads)
		}
		return rs.readLat[len(rs.readLat)-1]
	}
	if closed := last(); closed > 4*service {
		t.Errorf("closed loop: slowest read %v for a %v service time", closed, service)
	}
	if open := last("-rate", "1000"); open < 8*service {
		t.Errorf("open loop at 1000/s: slowest read %v, want the backlog of a 100 ms run (≈ 80 ms)", open)
	}
}

func TestLoopStopsAtTheDeadline(t *testing.T) {
	cfg := testConfig(t)
	blocked := func(ctx context.Context, _, _ int, _ workload.Op) (uint64, []byte, error) {
		<-ctx.Done()
		return 0, nil, ctx.Err()
	}
	began := time.Now()
	rs, err := drive(context.Background(), cfg, &target{keys: 8, attempt: blocked})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took < cfg.duration || took > cfg.duration+time.Second {
		t.Errorf("a %v run over a blocked attempt took %v (operation timeout %v)", cfg.duration, took, opTimeout)
	}
	if rs.failures != cfg.workers || rs.readOut.TimedOut+rs.writeOut.TimedOut != cfg.workers {
		t.Errorf("%d failures, outcomes %+v %+v: want one timed-out operation per worker", rs.failures, rs.readOut, rs.writeOut)
	}
}

// The sim mode end to end, through core.NewGroup, under each strategy and
// with every write of an item sent to one coordinator, whose group commit
// merges them: twelve items (so "item-10" sorts before "item-2" in
// the group), every key checked one-copy serializable, and the weighted
// strategy solving on one shared engine's tick, not once per coordinator.
func TestSimRunEndToEnd(t *testing.T) {
	const (
		duration         = 200 * time.Millisecond
		optimizeInterval = 200 * time.Millisecond // core's default
	)
	for _, args := range [][]string{
		{"-strategy", "hint"},
		{"-strategy", "optimized", "-slow-node", "2", "-slow-read", "200us"},
		{"-affinity"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cfg := testConfig(t, append([]string{"-duration", duration.String(), "-nodes", "4", "-items", "12", "-seed", "7"}, args...)...)
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.OneCopyViolations != 0 || res.CheckedKeys != 12 {
				t.Errorf("ops %d, one-copy violations %d, checked keys %d", res.Ops, res.OneCopyViolations, res.CheckedKeys)
			}
			if res.Metrics["core_writes_total"] == 0 {
				t.Errorf("no core_writes_total among the reported metrics: %v", res.Metrics)
			}
			if solves, most := res.Metrics["core_strategy_recomputes_total"], int64(duration/optimizeInterval)+2; solves > most {
				t.Errorf("%d strategy solves in %v, want at most %d", solves, duration, most)
			}
		})
	}
}

// Key i is the item itemNames names i on every node, whatever order
// the group keeps its items in.
func TestSimKeysFollowItemNames(t *testing.T) {
	tg, err := setupSim(testConfig(t, "-nodes", "3", "-items", "12"), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	cl := tg.faults.(*simCluster)
	for key, name := range itemNames(12) {
		for id, co := range cl.coords[key] {
			if got := co.Item().Name(); got != name || co.Item().Self() != nodeset.ID(id) {
				t.Errorf("key %d, node %d: coordinator of %q on node %v, want %q on %d", key, id, got, co.Item().Self(), name, id)
			}
		}
	}
}

// An operation drawn for a node that churn has down goes to the next node
// up, in ID order: node 1 down sends node 1's draws to node 2, node 3 down
// sends node 3's to node 0. None of them fails for want of a coordinator.
func TestDrawsForADownNodeGoToTheNextUp(t *testing.T) {
	tg, err := setupSim(testConfig(t, "-nodes", "4", "-items", "1"), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	ctx := context.Background()
	for _, down := range []nodeset.ID{1, 3} {
		tg.faults.crash(down)
		tg.faults.checkEpoch(ctx, 0, (down+1)%4) // as churnLoop does
		for _, kind := range []workload.OpKind{workload.OpWrite, workload.OpRead} {
			op := workload.Op{Kind: kind, Coordinator: down, Update: replica.Update{Data: []byte{byte(down)}}}
			if _, _, err := tg.attempt(ctx, 0, 0, op); err != nil {
				t.Errorf("node %v down: op kind %d drawn for it failed: %v", down, kind, err)
			}
		}
		if err := tg.faults.restart(down); err != nil {
			t.Fatal(err)
		}
		tg.faults.checkEpoch(ctx, 0, down)
	}
	if got := route(1, 4, func(id nodeset.ID) bool { return id != 1 }); got != 2 {
		t.Errorf("route past down node 1 = %v, want 2", got)
	}
	if got := route(3, 4, func(id nodeset.ID) bool { return id != 3 }); got != 0 {
		t.Errorf("route past down node 3 = %v, want 0 (wrapping)", got)
	}
	if got := route(1, 4, func(nodeset.ID) bool { return false }); got != 1 {
		t.Errorf("route with every node down = %v, want the drawn node", got)
	}
}

// A sweep that did not reach every key is an error, as a violation is.
func TestSweepMissingAKeyIsAnError(t *testing.T) {
	cfg := testConfig(t, "-sweep", "-nodes", "3", "-items", "64")
	res, err := run(context.Background(), cfg)
	if err != nil || res.DistinctKeys != 64 {
		t.Fatalf("sweep of 64 items: %d distinct keys, error %v", res.DistinctKeys, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupted before the first operation
	res, err = run(ctx, cfg)
	if res == nil || err == nil || !strings.Contains(err.Error(), "sweep touched 0 of 64 keys") {
		t.Fatalf("interrupted sweep: result %v, error %v", res, err)
	}
}

// The flags are the tool's surface: a new one has to show up here.
func TestFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	newFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"affinity", "capacity", "check-stride", "churn", "disjoint",
		"duration", "hedge", "items", "keyspace", "latency", "metrics", "net", "nodes",
		"pprof", "rate", "read-frac", "rf", "seed", "shards", "slow-node", "slow-read",
		"strategy", "sweep", "trace-sample", "workers",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %q\nwant %q", got, want)
	}
}
