package core

import (
	"math"
	"sync"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

const (
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

// LoadTracker measures what each member can serve — a mean of the time its
// calls take, read from the network's per-destination call-time histograms
// (transport.EndpointCallNs) — and turns it into the capacities the
// weighted strategy solves with (StrategyEngine). One tracker is shared by
// every coordinator on a network (WithSharedEngine builds it for NewGroup
// and the daemon). A nil *LoadTracker measures nothing: the solve then uses
// the declared capacities.
type LoadTracker struct {
	ids   []nodeset.ID
	index []int32 // node ID -> position+1 in ids; 0 = untracked

	mu    sync.Mutex // serializes solves' reads of the cells
	calls []callCell // measured call times, aligned with ids; under mu
}

// callCell is one destination's call time: an EWMA of per-solve means.
type callCell struct {
	hist               *obs.Histogram // transport.EndpointCallNs cell; nil on obs.Nop
	seenSum, seenCount uint64         // hist at the previous solve
	newSum, newCount   uint64         // completed since meanNs last moved
	meanNs             float64        // 0 = no estimate yet
	idle               int            // solves since meanNs last moved
}

// NewLoadTracker tracks the members' call times on the given network. It
// reads them from reg's transport.EndpointCallNs cells, not from net, so reg
// must be the registry net was given; with obs.Nop nothing is measured.
func NewLoadTracker(_ transport.Net, members nodeset.Set, reg *obs.Registry) *LoadTracker {
	return newLoadTracker(members, reg)
}

func newLoadTracker(members nodeset.Set, reg *obs.Registry) *LoadTracker {
	ids := members.IDs()
	maxID := nodeset.ID(0)
	for _, id := range ids {
		maxID = max(maxID, id)
	}
	t := &LoadTracker{
		ids:   ids,
		index: make([]int32, int(maxID)+2),
		calls: make([]callCell, len(ids)),
	}
	callNs := reg.HistogramVec(transport.EndpointCallNs)
	for i, id := range ids {
		t.index[id] = int32(i) + 1
		t.calls[i].hist = callNs.At(int(id))
	}
	return t
}

// capacity advances the call-time estimates by one solve and returns the
// capacities it should use: fastest mean / its mean for a node whose calls
// have been timed, declared (1 when nil) for any other, declared itself when
// nothing has been timed at all (obs.Nop, a nil tracker).
func (t *LoadTracker) capacity(declared coterie.CapacityFunc) coterie.CapacityFunc {
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
func capacityOf(declared coterie.CapacityFunc, id nodeset.ID) float64 {
	if declared == nil {
		return 1
	}
	return declared(id)
}
