package main

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	dl "coterie/internal/deadline"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/obs/expose"
	"coterie/internal/onecopy"
	"coterie/internal/workload"
)

// attemptFunc performs worker w's operation op on key once and returns the
// version a write committed at, or the version and value a read saw. A clean
// abort (nothing can have been applied) must satisfy
// errors.Is(err, core.ErrConflict); after any other error a write counts as
// possibly applied.
type attemptFunc func(ctx context.Context, w, key int, op workload.Op) (version uint64, value []byte, err error)

// outcomes is the disposition breakdown of one operation type.
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

func (o *outcomes) merge(p outcomes) {
	o.OK += p.OK
	o.Unavailable += p.Unavailable
	o.Conflict += p.Conflict
	o.TimedOut += p.TimedOut
	o.Other += p.Other
}

// workerStats is one worker's counts and latency samples; workers never
// share one, so the loop itself is contention-free. Every attempt is counted
// exactly once in reads, writes, conflicts or failures.
type workerStats struct {
	reads, writes       int // succeeded
	conflicts, failures int
	readOut, writeOut   outcomes
	readLat, writeLat   []time.Duration
}

// do runs one operation: bound it, attempt it, account for it and record it
// into the key's history (rec is nil for a key outside the checked sample).
// began is the operation's arrival: now in a closed loop, its scheduled slot
// under -rate.
func (st *workerStats) do(ctx context.Context, attempt attemptFunc, rec *onecopy.Recorder, w, key int, op workload.Op, began time.Time) {
	// A lazily armed deadline: the transport carries it on the wire, and an
	// operation that never parks never allocates a timer.
	opCtx, release := dl.Bound(ctx, opTimeout)
	defer release()
	var stamp uint64
	if rec != nil {
		stamp = rec.Begin()
	}
	version, value, err := attempt(opCtx, w, key, op)
	if err != nil && opCtx.Err() != nil {
		err = context.DeadlineExceeded // whatever the layer below made of it
	}
	if op.Kind == workload.OpRead {
		st.readOut.add(err)
		if err != nil {
			st.failures++
			return
		}
		st.reads++
		st.readLat = append(st.readLat, time.Since(began))
		if rec != nil {
			rec.EndRead(stamp, version, value)
		}
		return
	}
	st.writeOut.add(err)
	switch {
	case err == nil:
		st.writes++
		st.writeLat = append(st.writeLat, time.Since(began))
		if rec != nil {
			rec.EndWrite(stamp, version, op.Update)
		}
	case errors.Is(err, core.ErrConflict):
		// Clean abort: the commit point was never reached, so the write
		// cannot have applied and the history does not mention it.
		st.conflicts++
	default:
		// The commit may have begun before the failure; the checker must
		// allow both outcomes.
		st.failures++
		if rec != nil {
			rec.EndMaybeWrite(stamp, op.Update)
		}
	}
}

// runStats is what one drive produced: every worker's stats merged, and the
// histories and key coverage behind the verdict.
type runStats struct {
	workerStats
	elapsed  time.Duration
	recs     *recTable
	distinct int // keys touched at least once
}

// drive runs cfg.workers workers against t for cfg.duration (or until ctx is
// done) and returns their merged statistics. Operations in flight at the
// deadline are cut off there — their contexts carry it — and count as timed
// out. With -sweep nothing is cut off: the run ends once every worker has
// also walked its slice of the key space.
func drive(ctx context.Context, cfg config, t *target) (runStats, error) {
	root, err := workload.NewGenerator(workload.Config{
		Members:      nodeset.Range(0, nodeset.ID(cfg.nodes)),
		ReadFraction: cfg.readFrac, ItemSize: itemSize, Seed: cfg.seed,
	})
	if err != nil {
		return runStats{}, err
	}
	gens, err := root.Split(cfg.workers)
	if err != nil {
		return runStats{}, err
	}
	zroot, err := workload.NewZipf(uint64(t.keys), workload.DefaultZipfTheta, cfg.seed)
	if err != nil {
		return runStats{}, err
	}
	zipfs, err := zroot.Split(cfg.workers)
	if err != nil {
		return runStats{}, err
	}

	rs := runStats{recs: newRecTable(cfg.stride)}
	touched := make([]atomic.Uint64, (t.keys+63)/64)
	stats := make([]workerStats, cfg.workers)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !cfg.sweep {
		var release context.CancelFunc
		runCtx, release = context.WithDeadline(runCtx, deadline)
		defer release()
	}
	// One pacer shared by all workers makes the union of their operations a
	// single fixed-rate arrival stream; nil (rate 0) keeps the loop closed.
	pacer := workload.NewPacer(cfg.rate, start)

	var churning sync.WaitGroup
	if cfg.churn > 0 {
		churning.Add(1)
		go func() {
			defer churning.Done()
			churnLoop(runCtx, cfg, t)
		}()
	}
	var wg sync.WaitGroup
	for w := range cfg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's sweep slice, visited in order so the union over
			// workers covers every key exactly once; empty without -sweep.
			next, hi := t.keys, t.keys
			if cfg.sweep {
				next, hi = w*t.keys/cfg.workers, (w+1)*t.keys/cfg.workers
			}
			for n := 0; ; n++ {
				inTime := time.Now().Before(deadline)
				if runCtx.Err() != nil || (!inTime && next == hi) {
					return
				}
				began, due := pacer.Wait(runCtx)
				if !due {
					return
				}
				op := gens[w].Next()
				var key int
				switch {
				case next < hi && (!inTime || n%2 == 1):
					// Sweep keys alternate with drawn ones inside the
					// window and take over after it.
					key, next = next, next+1
				case cfg.disjoint:
					key = w % t.keys
				default:
					key = int(zipfs[w].Next())
				}
				touched[key>>6].Or(1 << (key & 63))
				if cfg.affinity && op.Kind == workload.OpWrite {
					op.Coordinator = nodeset.ID(key % cfg.nodes)
				}
				stats[w].do(runCtx, t.attempt, rs.recs.get(key), w, key, op, began)
			}
		}()
	}
	wg.Wait()
	rs.elapsed = time.Since(start)
	cancel()
	churning.Wait()

	for i := range stats {
		st := &stats[i]
		rs.reads += st.reads
		rs.writes += st.writes
		rs.conflicts += st.conflicts
		rs.failures += st.failures
		rs.readOut.merge(st.readOut)
		rs.writeOut.merge(st.writeOut)
		rs.readLat = append(rs.readLat, st.readLat...)
		rs.writeLat = append(rs.writeLat, st.writeLat...)
	}
	slices.Sort(rs.readLat)
	slices.Sort(rs.writeLat)
	for i := range touched {
		rs.distinct += bits.OnesCount64(touched[i].Load())
	}
	return rs, nil
}

// faults is what -churn does to a cluster, one node at a time.
type faults interface {
	crash(id nodeset.ID)
	restart(id nodeset.ID) error
	// checkEpoch runs one epoch check on item from node from.
	checkEpoch(ctx context.Context, item int, from nodeset.ID)
}

// churnLoop crashes a node, has the survivors check epochs so that they
// install a smaller one, restarts the node and checks again so that it is
// readmitted stale and propagation brings it current: epoch redirects on
// coordinators whose cached epoch went stale, stale marks on the readmitted
// replica, a populated staleness histogram. A crashed node is always
// restarted, so the cluster is whole when the loop returns.
func churnLoop(ctx context.Context, cfg config, t *target) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0xc0ffee))
	checkAll := func(avoid nodeset.ID) {
		for item := 0; item < t.keys && ctx.Err() == nil; item++ {
			from := nodeset.ID(rng.Intn(cfg.nodes))
			if from == avoid {
				from = (from + 1) % nodeset.ID(cfg.nodes)
			}
			checkCtx, cancel := context.WithTimeout(ctx, opTimeout)
			t.faults.checkEpoch(checkCtx, item, from)
			cancel()
		}
	}
	pause := func() {
		select {
		case <-ctx.Done():
		case <-time.After(cfg.churn):
		}
	}
	for ctx.Err() == nil {
		victim := nodeset.ID(rng.Intn(cfg.nodes))
		t.faults.crash(victim)
		checkAll(victim)
		pause()
		if err := t.faults.restart(victim); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: churn restart of node %d failed: %v\n", victim, err)
			return
		}
		checkAll(victim)
		pause()
	}
}

// recTable is the lazy, striped table of one-copy recorders, one per
// checked key: every stride-th key plus the 1024 lowest (Zipf rank is key
// order, so low keys are hot and contended, where a violation would show).
// 64 stripes keep the lookup off any single lock in the worker loop.
type recTable struct {
	stride  int
	stripes [64]struct {
		mu sync.Mutex
		m  map[int]*onecopy.Recorder
	}
}

func newRecTable(stride int) *recTable {
	t := &recTable{stride: stride}
	for i := range t.stripes {
		t.stripes[i].m = make(map[int]*onecopy.Recorder)
	}
	return t
}

// get returns key's recorder, made on first touch, or nil when the key
// falls outside the checked sample.
func (t *recTable) get(key int) *onecopy.Recorder {
	if key >= 1024 && key%t.stride != 0 {
		return nil
	}
	s := &t.stripes[key&63]
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.m[key]
	if r == nil {
		r = onecopy.NewRecorder(make([]byte, itemSize))
		s.m[key] = r
	}
	return r
}

// check verifies every recorded history and returns how many keys were
// checked and how many violated one-copy serializability.
func (t *recTable) check() (checked, violations int) {
	for i := range t.stripes {
		for key, rec := range t.stripes[i].m {
			checked++
			if err := rec.Check(); err != nil {
				violations++
				fmt.Fprintf(os.Stderr, "loadgen: ONE-COPY VIOLATION key %d: %v\n", key, err)
			}
		}
	}
	return checked, violations
}

// result is the JSON report. Latencies are microseconds, from sorted
// samples of successful operations.
type result struct {
	GOMAXPROCS        int      `json:"gomaxprocs"`
	NumCPU            int      `json:"num_cpu"`
	ElapsedSec        float64  `json:"elapsed_sec"`
	Ops               int      `json:"ops"` // reads + writes that succeeded
	Reads             int      `json:"reads"`
	Writes            int      `json:"writes"`
	Conflicts         int      `json:"conflicts"`
	Failures          int      `json:"failures"`
	OpsPerSec         float64  `json:"ops_per_sec"`
	ReadP50us         int64    `json:"read_p50_us"`
	ReadP99us         int64    `json:"read_p99_us"`
	ReadP999us        int64    `json:"read_p999_us"`
	WriteP50us        int64    `json:"write_p50_us"`
	WriteP99us        int64    `json:"write_p99_us"`
	WriteP999us       int64    `json:"write_p999_us"`
	ReadOutcomes      outcomes `json:"read_outcomes"`
	WriteOutcomes     outcomes `json:"write_outcomes"`
	OneCopyViolations int      `json:"onecopy_violations"`
	CheckedKeys       int      `json:"checked_keys"`
	DistinctKeys      int      `json:"distinct_keys"`

	// Metrics are this process's non-zero counters; ClusterMetrics the
	// spawned daemons', merged from their admin endpoints after the run.
	Metrics        map[string]int64 `json:"metrics"`
	ClusterMetrics map[string]int64 `json:"cluster_metrics,omitempty"`

	// Sharded mode: operations per shard and the smart client's counters.
	PerShardOps []int64           `json:"per_shard_ops,omitempty"`
	Client      *capi.ClientStats `json:"client,omitempty"`
}

// report checks the histories and turns a run into its result, printing the
// verdict and this process's metrics to stderr on the way.
func report(rs runStats, reg *obs.Registry) result {
	res := result{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		ElapsedSec: rs.elapsed.Seconds(),
		Ops:        rs.reads + rs.writes, Reads: rs.reads, Writes: rs.writes,
		Conflicts: rs.conflicts, Failures: rs.failures,
		ReadP50us: quantileUs(rs.readLat, 0.50), ReadP99us: quantileUs(rs.readLat, 0.99), ReadP999us: quantileUs(rs.readLat, 0.999),
		WriteP50us: quantileUs(rs.writeLat, 0.50), WriteP99us: quantileUs(rs.writeLat, 0.99), WriteP999us: quantileUs(rs.writeLat, 0.999),
		ReadOutcomes: rs.readOut, WriteOutcomes: rs.writeOut,
		DistinctKeys: rs.distinct,
	}
	res.OpsPerSec = float64(res.Ops) / rs.elapsed.Seconds()
	res.CheckedKeys, res.OneCopyViolations = rs.recs.check()
	if res.OneCopyViolations == 0 {
		fmt.Fprintf(os.Stderr, "loadgen: one-copy serializability verified on %d keys (%d distinct keys touched, %d ops, %.0f ops/s)\n",
			res.CheckedKeys, res.DistinctKeys, res.Ops, res.OpsPerSec)
	}

	snap := reg.Snapshot()
	counters := make(map[string]int64)
	for _, c := range slices.Concat(snap.Counters, snap.Gauges) {
		counters[c.Name] = c.Value
	}
	hists := make(map[string]obs.HistogramSnapshot)
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Hist
	}
	for _, v := range snap.HistVecs { // call times by destination print merged
		var merged obs.HistogramSnapshot
		for _, cell := range v.Hists {
			merged = merged.Merge(cell)
		}
		hists[v.Name] = merged
	}
	res.Metrics = printMetrics("obs summary", counters, hists)
	if tr := sampleTrace(snap.Traces); tr != nil {
		fmt.Fprintln(os.Stderr, "--- sample flight trace ---")
		fmt.Fprint(os.Stderr, expose.FormatTrace(tr))
	}
	return res
}

// quantileUs is the p-quantile (nearest rank) of sorted samples in
// microseconds; zero without samples.
func quantileUs(sorted []time.Duration, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))].Microseconds()
}

// printMetrics writes the non-zero counters and non-empty histograms to
// stderr under a title, by name, and returns those counters.
func printMetrics(title string, counters map[string]int64, hists map[string]obs.HistogramSnapshot) map[string]int64 {
	fmt.Fprintf(os.Stderr, "--- %s ---\n", title)
	moved := make(map[string]int64)
	names := make([]string, 0, len(counters))
	for name, v := range counters {
		if v != 0 {
			moved[name] = v
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%-45s %d\n", name, moved[name])
	}
	names = names[:0]
	for name, h := range hists {
		if h.Count != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := hists[name]
		p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
		if strings.HasSuffix(name, "_ns") {
			fmt.Fprintf(os.Stderr, "%-45s count=%d p50=%s p99=%s\n", name, h.Count, time.Duration(p50), time.Duration(p99))
		} else {
			fmt.Fprintf(os.Stderr, "%-45s count=%d p50=%d p99=%d\n", name, h.Count, p50, p99)
		}
	}
	return moved
}

// sampleTrace picks the most interesting completed trace: a write with a
// stale-mark event if one exists (the partial write of the paper's Section
// 4.2), else any write, else any trace.
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
