package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// StrategyEngine drives StrategyOptimized: it
// keeps an atomically-swapped snapshot of the solved quorum distribution
// and serves allocation-free weighted picks from it, re-solving on a
// low-frequency tick in a background goroutine; only an epoch's first table
// is solved where it was asked for.
//
// One engine serves every coordinator that shares a registry and member
// set — the solved distribution depends only on the layout, the
// capacities and the read mix, none of which are per-item, and a process of 9 nodes and
// 8 items solving per item would solve ~70× more often than the tick
// intends. WithSharedEngine builds exactly one for NewGroup and for the
// daemon, shared through Options.Engine; a coordinator constructed without
// one picks as StrategyHint does.
//
// The hot path (pickRead/pickWrite) is: one atomic pointer load, one
// epoch-equality check on preallocated sets, one alias-table lookup, one
// counter increment — no heap allocations (gated by
// TestOptimizedPickAllocs / `make check-allocs`). Everything expensive —
// candidate enumeration (once per epoch), the solve, alias-table
// construction — happens in recompute, off the pick path but for an epoch's
// first solve, and is published by a single pointer swap.
type StrategyEngine struct {
	capacity coterie.CapacityFunc
	load     *LoadTracker
	interval time.Duration
	// reads/writes observe the registry-shared operation counters so the
	// solver can weight the read and write blocks by the measured mix.
	readsTotal, writesTotal *obs.Counter

	metrics strategyMetrics

	snap        atomic.Pointer[stratSnapshot]
	recomputing atomic.Bool
	lastSolve   atomic.Int64 // unix nanos of the last solve attempt

	// cache keeps the most recent snapshot per epoch. Items reconfigure
	// independently, so two items can transiently live in different
	// epochs; with only the single fast-path pointer their picks would
	// ping-pong it between epochs and (worse) each mismatch would demand
	// a fresh solve. The cache lets every recently-solved epoch keep serving
	// its distribution; the fast-path pointer is just a lock-free shortcut
	// to whichever epoch picked last.
	mu        sync.Mutex
	cache     [snapCacheSlots]*stratSnapshot
	cacheNext int
}

// snapCacheSlots bounds the per-epoch snapshot cache. Epochs in flight at
// once come from staggered per-item reconfiguration, so a handful is
// plenty; an evicted epoch just falls back until the next solve tick.
const snapCacheSlots = 4

// stratSnapshot is one published distribution. All fields are immutable
// after publication; the candidate sets are returned to callers by value
// (sharing their backing words, as Layout.Epoch does) and must not be
// modified.
type stratSnapshot struct {
	epoch  nodeset.Set
	reads  []nodeset.Set
	writes []nodeset.Set
	// prog is the candidates resolved against the epoch's members. It, the
	// candidates and the pick counters depend on the epoch alone: the epoch's
	// next snapshot takes them over as they are.
	prog   *coterie.Program
	rTable *coterie.Alias
	wTable *coterie.Alias
	// rPicks/wPicks are the pick counters, resolved at snapshot
	// construction so the pick path never touches registry maps. They are
	// keyed by quorum cardinality, not candidate slot: slot k maps to a
	// different quorum after every re-enumeration or epoch change, so
	// per-slot series would silently aggregate unrelated quorums, while
	// size is stable across recomputes and is the "quorum shape" cotop
	// renders.
	rPicks []*obs.Counter
	wPicks []*obs.Counter
}

// strategyMetrics are the optimizer's observability attachments, resolved
// once. Nil-safe via the registry's Nop behavior.
type strategyMetrics struct {
	recomputes  *obs.Counter    // core_strategy_recomputes_total
	recomputeNs *obs.Histogram  // core_strategy_recompute_ns
	entropy     *obs.GaugeVec   // core_strategy_entropy_milli: [0]=read, [1]=write
	capacity    *obs.Gauge      // core_strategy_capacity_milli (predicted, ×1000)
	capBound    *obs.Gauge      // core_strategy_capacity_bound_milli: what the certificate allows at most
	rPickVec    *obs.CounterVec // core_strategy_read_pick_total by quorum size
	wPickVec    *obs.CounterVec // core_strategy_write_pick_total by quorum size
	nodeCap     *obs.GaugeVec   // core_node_capacity_milli by node ID: what the last solve used
	nodeUtil    *obs.GaugeVec   // core_node_utilization_milli by node ID: what it predicts
}

func newStrategyMetrics(r *obs.Registry) strategyMetrics {
	return strategyMetrics{
		recomputes:  r.Counter("core_strategy_recomputes_total"),
		recomputeNs: r.Histogram("core_strategy_recompute_ns"),
		entropy:     r.GaugeVec("core_strategy_entropy_milli"),
		capacity:    r.Gauge("core_strategy_capacity_milli"),
		capBound:    r.Gauge("core_strategy_capacity_bound_milli"),
		rPickVec:    r.CounterVec("core_strategy_read_pick_total"),
		wPickVec:    r.CounterVec("core_strategy_write_pick_total"),
		nodeCap:     r.GaugeVec("core_node_capacity_milli"),
		nodeUtil:    r.GaugeVec("core_node_utilization_milli"),
	}
}

// NewStrategyEngine builds one weighted-strategy engine for the given
// member set. load may be nil (declared capacities only); opts supplies
// the declared capacities, recompute interval and registry, exactly as
// they would reach a coordinator.
func NewStrategyEngine(all nodeset.Set, load *LoadTracker, opts Options) *StrategyEngine {
	opts = opts.withDefaults()
	s := &StrategyEngine{
		capacity:    opts.Capacity,
		load:        load,
		interval:    opts.OptimizeInterval,
		readsTotal:  opts.Obs.Counter("core_reads_total"),
		writesTotal: opts.Obs.Counter("core_writes_total"),
		metrics:     newStrategyMetrics(opts.Obs),
	}
	// Publish the declared capacities, so a scrape can set what the operator
	// said beside what each solve measured and used (core_node_capacity_milli).
	declared := opts.Obs.GaugeVec("core_node_declared_capacity_milli")
	for _, id := range all.IDs() {
		declared.At(int(id)).Set(milli(capacityOf(s.capacity, id)))
	}
	return s
}

// WithSharedEngine returns opts carrying the one LoadTracker and
// StrategyEngine every coordinator of a process shares over the given
// members: under a weighted strategy it builds whichever of the two opts
// lacks, and otherwise returns opts unchanged. The solved distribution is
// not per item, so an engine per coordinator would multiply the background
// solves by the item count; NewGroup and the daemon both build through here.
func WithSharedEngine(opts Options, members nodeset.Set) Options {
	if !opts.Strategy.Weighted() || opts.Engine != nil {
		return opts
	}
	if opts.Load == nil {
		opts.Load = newLoadTracker(members, opts.Obs)
	}
	opts.Engine = NewStrategyEngine(members, opts.Load, opts)
	return opts
}

func milli(x float64) int64 { return int64(math.Round(x * 1000)) }

// readFrac returns the observed read fraction of the registry's operation
// counters, or 0.5 before enough samples exist.
func (s *StrategyEngine) readFrac() float64 {
	r := float64(s.readsTotal.Load())
	w := float64(s.writesTotal.Load())
	if r+w < 64 {
		return 0.5
	}
	return r / (r + w)
}

// pickRead returns a read quorum sampled from the solved distribution.
// ok=false means no valid snapshot is available (a degenerate epoch, or one
// not solved yet while another solve runs or none is due); the caller falls
// back to the hint path, and a recompute fires at the next tick.
func (s *StrategyEngine) pickRead(lay *coterie.Layout, avail nodeset.Set, h int) (nodeset.Set, bool) {
	snap := s.maybeSnapshot(lay, avail)
	if snap == nil {
		return nodeset.Set{}, false
	}
	k := snap.rTable.Pick(uint64(h))
	if k < 0 {
		return nodeset.Set{}, false
	}
	snap.rPicks[k].Inc()
	return snap.reads[k], true
}

// pickWrite is pickRead's write analogue.
func (s *StrategyEngine) pickWrite(lay *coterie.Layout, avail nodeset.Set, h int) (nodeset.Set, bool) {
	snap := s.maybeSnapshot(lay, avail)
	if snap == nil {
		return nodeset.Set{}, false
	}
	k := snap.wTable.Pick(uint64(h))
	if k < 0 {
		return nodeset.Set{}, false
	}
	snap.wPicks[k].Inc()
	return snap.writes[k], true
}

// maybeSnapshot returns a snapshot matching the epoch the caller is
// selecting over. Recomputes are triggered at most once per interval no
// matter how many epochs are live or how stale the match is: the engine is
// shared by every coordinator, and letting each epoch mismatch demand its own
// solve would run solves back-to-back whenever two items transiently disagree
// on membership. A due solve for an epoch that has no table yet runs on the
// goroutine that asked, which then picks from it: tens of microseconds, where
// a caller whose rounds never park could draw fallback quorums for long before
// a background goroutine ran. Re-solves run in the background; an unsolved
// epoch that is not due falls back until its tick.
func (s *StrategyEngine) maybeSnapshot(lay *coterie.Layout, avail nodeset.Set) *stratSnapshot {
	snap := s.lookup(avail)
	if now := time.Now().UnixNano(); now-s.lastSolve.Load() >= int64(s.interval) &&
		s.recomputing.CompareAndSwap(false, true) {
		epoch := avail.Clone()
		solve := func() {
			defer s.recomputing.Store(false)
			s.recompute(lay, epoch)
		}
		if snap != nil {
			go solve()
		} else {
			solve()
			snap = s.lookup(avail)
		}
	}
	return snap
}

// lookup returns the solved snapshot of the given epoch, or nil: the
// lock-free fast-path pointer when it matches, else the per-epoch cache.
func (s *StrategyEngine) lookup(epoch nodeset.Set) *stratSnapshot {
	snap := s.snap.Load()
	if snap == nil || !snap.epoch.Equal(epoch) {
		if snap = s.cached(epoch); snap != nil {
			// Promote so subsequent picks for this epoch stay lock-free.
			s.snap.Store(snap)
		}
	}
	return snap
}

// cached returns the cache entry for the given epoch, or nil.
func (s *StrategyEngine) cached(epoch nodeset.Set) *stratSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.cache {
		if c != nil && c.epoch.Equal(epoch) {
			return c
		}
	}
	return nil
}

// storeCache inserts a freshly-solved snapshot, replacing the entry for
// the same epoch if one exists, else the oldest slot.
func (s *StrategyEngine) storeCache(snap *stratSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.cache {
		if c != nil && c.epoch.Equal(snap.epoch) {
			s.cache[i] = snap
			return
		}
	}
	s.cache[s.cacheNext] = snap
	s.cacheNext = (s.cacheNext + 1) % len(s.cache)
}

// recompute solves and publishes one snapshot for the given epoch. lay must
// be the layout compiled for exactly that epoch (layouts are immutable, so
// reading it off-thread is safe). Only an epoch's first solve enumerates the
// candidates and resolves the pick counters; later ones take them from the
// snapshot they replace. Every attempt is stamped, so the tick cannot spin.
func (s *StrategyEngine) recompute(lay *coterie.Layout, epoch nodeset.Set) {
	start := time.Now()
	defer func() { s.lastSolve.Store(time.Now().UnixNano()) }()
	members := epoch.IDs()
	snap := &stratSnapshot{}
	if prev := s.cached(epoch); prev != nil {
		*snap = *prev // the tables are replaced below
	} else {
		reads, writes := lay.EnumerateReadQuorums(0), lay.EnumerateWriteQuorums(0)
		prog, err := coterie.NewProgram(reads, writes, members)
		if err != nil {
			return // degenerate epoch: the fallback path stays in charge
		}
		*snap = stratSnapshot{epoch: epoch, reads: reads, writes: writes, prog: prog}
		for _, q := range reads {
			snap.rPicks = append(snap.rPicks, s.metrics.rPickVec.At(q.Len()))
		}
		for _, q := range writes {
			snap.wPicks = append(snap.wPicks, s.metrics.wPickVec.At(q.Len()))
		}
	}
	capacity := s.load.capacity(s.capacity)
	dist := snap.prog.Solve(s.readFrac(), capacity)
	snap.rTable = coterie.NewAlias(dist.ReadWeights)
	snap.wTable = coterie.NewAlias(dist.WriteWeights)
	s.snap.Store(snap)
	s.storeCache(snap)

	s.metrics.recomputes.Inc()
	s.metrics.recomputeNs.Record(uint64(time.Since(start).Nanoseconds()))
	s.metrics.entropy.At(0).Set(int64(snap.rTable.Entropy() * 1000))
	s.metrics.entropy.At(1).Set(int64(snap.wTable.Entropy() * 1000))
	s.metrics.capacity.Set(milli(dist.Capacity))
	if dist.Bound > 0 {
		s.metrics.capBound.Set(milli(1 / dist.Bound))
	}
	for i, id := range members {
		s.metrics.nodeCap.At(int(id)).Set(milli(capacityOf(capacity, id)))
		s.metrics.nodeUtil.At(int(id)).Set(milli(dist.Utilization[i]))
	}
}

// warm synchronously computes the first snapshot for the given layout —
// tests and benchmarks call it to skip the cold-start fallback window.
func (s *StrategyEngine) warm(lay *coterie.Layout) {
	s.recompute(lay, lay.Epoch().Clone())
}
