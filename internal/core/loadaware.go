package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

const (
	// loadAlpha is the EWMA smoothing factor: each refresh replaces 30% of
	// the estimate with the newly observed request rate. High enough to
	// track a shifting hot spot within a few refresh intervals, low enough
	// that one bursty sample does not stampede every coordinator off an
	// endpoint at once.
	loadAlpha = 0.3
	// loadRefreshInterval is the minimum time between samplings of the
	// transport's served counters. Quorum selection calls maybeRefresh on
	// every operation; the interval (plus the TryLock) makes that a cheap
	// atomic comparison for all but one caller per interval.
	loadRefreshInterval = 5 * time.Millisecond

	// callAlpha weighs the calls completed since the previous solve in a
	// node's mean call time; minCallSamples is how many of them move it.
	// Fewer are carried to the next solve: a node the solver steers around
	// still answers the odd call, and a mean over two of them is noise.
	callAlpha      = 0.5
	minCallSamples = 8
	// relaxAfter is the solve, counted from the one that last moved a node's
	// mean, at which the mean starts back towards what the declared capacity
	// implies, half the remaining way (geometrically) per solve. The solver
	// gives a seat that buys less than its tolerance no mass at all, so this
	// is the only way a node priced out of every quorum is ever timed again:
	// a step or two may still buy nothing, the next is offered a sliver of
	// traffic, and eight timed calls settle whether it has recovered. 25
	// solves are 5 s by default; a probe costs a fraction of a percent.
	relaxAfter = 25
)

// LoadTracker maintains a per-endpoint load estimate — an EWMA of the rate
// of requests each node served, sampled from the transport's served
// counters — for load-aware quorum selection (Options.Strategy =
// StrategyLoadAware). One tracker is shared by every coordinator on a
// network (NewCluster builds one; loadgen passes one through Options.Load)
// so all of them steer around the same observed hot spots.
//
// Load reads are lock-free and allocation-free; refreshes are serialized
// by a TryLock so a stalled sampler never blocks the operation path. A nil
// *LoadTracker is inert (Load reports 0).
type LoadTracker struct {
	ids    []nodeset.ID
	index  []int32 // node ID -> position+1 in ids; 0 = untracked
	cells  []loadCell
	gauges []*obs.Gauge // core_endpoint_load_ewma cells, aligned with ids
	calls  []callCell   // measured call times, aligned with ids; under mu
	// sample reads a node's cumulative served-request count; it is the
	// transport's Served counter in production and a test seam here.
	sample func(nodeset.ID) uint64

	last atomic.Int64 // unix nanos of the last refresh (admission check)

	mu    sync.Mutex // serializes refreshes
	prevT int64      // unix nanos of the last sample, under mu
}

// loadCell is one endpoint's estimate. prev is only touched under the
// tracker mutex; ewma is the float64-bits EWMA read lock-free by Load.
// Padding keeps concurrently-read cells off each other's cache lines.
type loadCell struct {
	ewma atomic.Uint64
	prev uint64
	_    [48]byte
}

// callCell is one destination's call time: an EWMA of per-solve means.
type callCell struct {
	hist               *obs.Histogram // transport.EndpointCallNs cell; nil on obs.Nop
	seenSum, seenCount uint64         // hist at the previous solve
	newSum, newCount   uint64         // completed since meanNs last moved
	meanNs             float64        // 0 = no estimate yet
	idle               int            // solves since meanNs last moved
}

// NewLoadTracker tracks the members' load on the given network, publishing
// the estimates through reg's core_endpoint_load_ewma gauge vector
// (indexed by node ID), and reads the network's per-destination call times
// from it (transport.EndpointCallNs): reg is the registry net was given.
func NewLoadTracker(net transport.Net, members nodeset.Set, reg *obs.Registry) *LoadTracker {
	return newLoadTracker(members, net.Served, reg)
}

func newLoadTracker(members nodeset.Set, sample func(nodeset.ID) uint64, reg *obs.Registry) *LoadTracker {
	ids := members.IDs()
	maxID := nodeset.ID(0)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	t := &LoadTracker{
		ids:    ids,
		index:  make([]int32, int(maxID)+2),
		cells:  make([]loadCell, len(ids)),
		gauges: make([]*obs.Gauge, len(ids)),
		calls:  make([]callCell, len(ids)),
		sample: sample,
	}
	vec := reg.GaugeVec("core_endpoint_load_ewma")
	callNs := reg.HistogramVec(transport.EndpointCallNs)
	for i, id := range ids {
		t.index[id] = int32(i) + 1
		t.cells[i].prev = sample(id)
		t.gauges[i] = vec.At(int(id))
		t.calls[i].hist = callNs.At(int(id))
	}
	now := time.Now().UnixNano()
	t.prevT = now
	t.last.Store(now)
	return t
}

// Load returns the node's current EWMA request rate (requests/second).
// Untracked nodes — and every node of a nil tracker — report 0. The
// signature matches coterie.LoadFunc.
func (t *LoadTracker) Load(id nodeset.ID) float64 {
	if t == nil || int(id) >= len(t.index) {
		return 0
	}
	p := t.index[id]
	if p == 0 {
		return 0
	}
	return math.Float64frombits(t.cells[p-1].ewma.Load())
}

// maybeRefresh re-samples the served counters if at least
// loadRefreshInterval has passed. Called on the quorum-selection path:
// the fast path is one atomic load and a comparison, and a refresh
// already in flight is never waited on.
func (t *LoadTracker) maybeRefresh() {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	if now-t.last.Load() < int64(loadRefreshInterval) {
		return
	}
	if !t.mu.TryLock() {
		return
	}
	if now-t.last.Load() >= int64(loadRefreshInterval) {
		t.refreshLocked(now)
	}
	t.mu.Unlock()
}

// Refresh forces an immediate re-sample regardless of the interval
// (tests; a metrics scraper wanting fresh gauges).
func (t *LoadTracker) Refresh() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.refreshLocked(time.Now().UnixNano())
	t.mu.Unlock()
}

// refreshLocked folds one served-counter delta into every cell's EWMA and
// publishes the rounded estimate to the gauge vector. Counter regressions
// (a transport ResetStats) clamp the delta to zero rather than poisoning
// the estimate.
func (t *LoadTracker) refreshLocked(now int64) {
	dt := float64(now-t.prevT) / float64(time.Second)
	if dt <= 0 {
		t.last.Store(now)
		return
	}
	for i, id := range t.ids {
		c := &t.cells[i]
		served := t.sample(id)
		delta := served - c.prev
		if served < c.prev {
			delta = 0
		}
		c.prev = served
		rate := float64(delta) / dt
		next := loadAlpha*rate + (1-loadAlpha)*math.Float64frombits(c.ewma.Load())
		c.ewma.Store(math.Float64bits(next))
		t.gauges[i].Set(int64(next))
	}
	t.prevT = now
	t.last.Store(now)
}

// capacity advances the call-time estimates by one solve and returns the
// capacities it should use: fastest mean / its mean for a node whose calls
// have been timed, declared (1 when nil) for any other, declared itself when
// nothing has been timed at all (obs.Nop, a nil tracker).
func (t *LoadTracker) capacity(declared coterie.LoadFunc) coterie.LoadFunc {
	if t == nil {
		return declared
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fastest := math.Inf(1)
	for i := range t.calls {
		c := &t.calls[i]
		now := c.hist.Snapshot() // nil-safe: empty on obs.Nop
		c.newCount += now.Count - c.seenCount
		c.newSum += now.Sum - c.seenSum
		c.seenCount, c.seenSum = now.Count, now.Sum
		if c.newCount >= minCallSamples {
			mean := float64(c.newSum) / float64(c.newCount)
			if c.meanNs > 0 {
				mean = callAlpha*mean + (1-callAlpha)*c.meanNs
			}
			c.meanNs, c.newSum, c.newCount, c.idle = mean, 0, 0, -1
		}
		if c.meanNs > 0 {
			c.idle++
			fastest = min(fastest, c.meanNs)
		}
	}
	if math.IsInf(fastest, 1) {
		return declared
	}
	caps := make([]float64, len(t.ids))
	for i, id := range t.ids {
		c := &t.calls[i]
		caps[i] = capacityOf(declared, id)
		if c.meanNs == 0 {
			continue
		}
		if c.idle >= relaxAfter && caps[i] > 0 {
			c.meanNs = math.Sqrt(c.meanNs * fastest / caps[i])
		}
		caps[i] = fastest / c.meanNs
	}
	return func(id nodeset.ID) float64 {
		if int(id) < len(t.index) && t.index[id] != 0 {
			return caps[t.index[id]-1]
		}
		return capacityOf(declared, id)
	}
}

// capacityOf is a node's declared capacity; nothing declared means 1.
func capacityOf(declared coterie.LoadFunc, id nodeset.ID) float64 {
	if declared == nil {
		return 1
	}
	return declared(id)
}
