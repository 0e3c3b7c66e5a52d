package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"coterie/internal/core"
)

// client is one closed-loop caller: step issues one logical operation
// (waiting for its reply, retries included) and reports its kind, the
// latency the caller saw, and its outcome.
type client interface {
	step(ctx context.Context, st *clientStats) (isRead bool, lat time.Duration, err error)
	traced() *traceAcc
}

// cluster is a system under test, built by a workload.
type cluster interface {
	newClients(seed int64) ([]client, error)
	counters() counters
	verify(ctx context.Context) (events int, err error)
	forget()
	epochStats() (changes []time.Duration, failures int)
	close()
}

// workloadDef is one named workload. build is the timed set-up.
type workloadDef struct {
	name string
	why  string
	// setups is how many times a run sets the workload up to report the
	// median set-up time: hundreds for the millisecond sim set-ups (the
	// first ten or so of a process run cold and take twice as long, so a
	// median of 15 moved 20–35 % between runs), few for the tcp one, which
	// starts daemons and writes 2 048 keys.
	setups int
	build  func(seed int64, tr *tracer) (cluster, error)
}

func simWorkload(name, why string, spec simSpec) workloadDef {
	return workloadDef{name: name, why: why, setups: 300, build: func(seed int64, tr *tracer) (cluster, error) {
		return newSimCluster(spec, seed, tr)
	}}
}

var grid9 = simSpec{
	nodes: 9, items: 8, itemSize: 256, maxWrite: 16, readFrac: 0.5, clients: 2,
	callTimeout: 250 * time.Millisecond, strategy: core.StrategyHint, slowNode: -1,
}

// workloads is the fixed table. The why strings are BENCHMARK.json's.
var workloads = func() []workloadDef {
	disjoint := grid9
	disjoint.pinned = true

	hot := grid9
	hot.callTimeout = 25 * time.Millisecond

	slow := disjoint
	slow.readFrac = 0.9
	slow.strategy = core.StrategyOptimized
	slow.slowNode, slow.slowWork, slow.slowCapacity = 4, 500*time.Microsecond, 0.1

	fault := grid9
	fault.items, fault.clients, fault.faultEvery = 4, 1, 200
	fault.readFrac = 0.9 // at 0.5 half the reads need a second round and the median sits on the edge between the two
	fault.callTimeout = 25 * time.Millisecond

	sharded := tcpSpec{daemons: 4, shards: 16, rf: 3, keys: 2048, keySize: 1024, maxWrite: 64, readFrac: 0.5, clients: 2}

	return []workloadDef{
		simWorkload("sim_disjoint", "no lock conflicts and no sockets: core, coterie and replica CPU is nearly all the cost; a tcpnet or wire change must not move it", disjoint),
		simWorkload("sim_hot", "both clients draw the same 8 items Zipf 0.99 from random coordinators: the cross-coordinator lock collapse the hot-item fix will claim on", hot),
		simWorkload("sim_slow", "90% reads, node 4 burns 500 us per message, strategy optimized: the only workload the coterie solver and alias draw decide", slow),
		simWorkload("sim_faultcycle", "one client crashes and restarts a node every 200 operations: epoch change, stale marking and propagation under load", fault),
		{name: "tcp_sharded", why: "4 daemons on loopback TCP, 16 shards, per-client keys: the full client-capi-daemon-core-tcpnet-wire-replica path, where sockets and codec dominate", setups: 9, build: func(_ int64, tr *tracer) (cluster, error) {
			return newTCPCluster(sharded, tr)
		}},
	}
}()

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runPhase drives every client in its own goroutine until d has passed
// and returns the merged tallies. Generator and fault-schedule state live
// in the clients, so a warm-up phase and a measured phase continue one
// stream.
func runPhase(ctx context.Context, clients []client, d time.Duration) phaseStats {
	stats := make([]clientStats, len(clients))
	began := time.Now()
	deadline := began.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		stats[i] = newClientStats(began, d)
		wg.Add(1)
		go func(c client, st *clientStats) {
			defer wg.Done()
			for now := began; now.Before(deadline); {
				isRead, lat, err := c.step(ctx, st)
				now = time.Now()
				st.record(isRead, lat, err, now)
			}
		}(c, &stats[i])
	}
	wg.Wait()
	return mergeStats(time.Since(began), stats)
}

// runOpts sizes one run of one workload.
type runOpts struct {
	setups  int // how many times to set up; the quiet end is reported
	warm    time.Duration
	measure time.Duration
	traced  bool
}

// runResult is everything one run of one workload measured.
type runResult struct {
	setupS     float64
	stats      phaseStats // latency samples dropped; see summary
	sum        summary
	liveHeapMB float64
	counts     map[string]float64
	events     int
	checkMs    float64
	trace      traceAcc
	tracer     *tracer
}

// summary holds what is read off the latency samples, so the samples can
// be released before the live heap is measured: the quiet end (quietest) of
// the per-second throughput (1/s) and of the per-window latency
// percentiles (µs), the sample counts, and the
// whole-phase rate (the tracing overhead compares two of those).
type summary struct {
	opsPerSec         float64
	meanOpsPerSec     float64
	reads, writes     int
	readP50, writeP50 float64
}

func summarize(st phaseStats) summary {
	return summary{
		opsPerSec: quietest(st.opsPerSecW, quietRate, true), meanOpsPerSec: st.meanOpsPerSec(),
		reads: len(st.readLat), writes: len(st.writeLat),
		readP50: quietest(st.readP50W, quietShare, false), writeP50: quietest(st.writeP50W, quietShare, false),
	}
}

// run sets the workload up, warms it, measures it and checks it.
func (w workloadDef) run(ctx context.Context, seed int64, o runOpts) (runResult, error) {
	var res runResult
	if o.traced {
		res.tracer = newTracer()
	}
	var cl cluster
	setups := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if cl != nil {
			cl.close()
		}
		began := time.Now()
		var err error
		if cl, err = w.build(seed, res.tracer); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	defer cl.close()
	res.setupS = quietest(setups, quietShare, false)

	clients, err := cl.newClients(seed)
	if err != nil {
		return res, err
	}
	runPhase(ctx, clients, o.warm)
	for _, c := range clients {
		*c.traced() = traceAcc{} // spans of the warm-up are discarded too
	}

	before, p0 := cl.counters(), sampleProc()
	changesBefore, failuresBefore := cl.epochStats()
	st := runPhase(ctx, clients, o.measure)
	after, p1 := cl.counters(), sampleProc()
	changes, failures := cl.epochStats()
	changes = slices.Clone(changes[len(changesBefore):])
	for _, c := range clients {
		res.trace.add(c.traced())
	}

	checkBegan := time.Now()
	if res.events, err = cl.verify(ctx); err != nil {
		return res, fmt.Errorf("one-copy check: %w", err)
	}
	res.checkMs = ms(time.Since(checkBegan))

	res.counts = countMetrics(before, after, p0, p1, st)
	slices.Sort(changes)
	res.counts["core.epoch_change_p50_us"] = us(quantile(changes, 0.5))
	res.counts["core.epoch_changes"] = float64(len(changes))
	res.counts["core.epoch_check_failures"] = float64(failures - failuresBefore)
	slices.Sort(st.recoveries)
	res.counts["core.recovery_p50_ms"] = ms(quantile(st.recoveries, 0.5))
	res.counts["core.recoveries"] = float64(len(st.recoveries))

	// The live heap is the cluster's after the measured interval, without
	// the instrument's histories and samples.
	res.sum = summarize(st)
	st.readLat, st.writeLat = nil, nil
	res.stats = st
	cl.forget()
	res.liveHeapMB = liveHeapMB()

	return res, nil
}
