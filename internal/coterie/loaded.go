package coterie

import "coterie/internal/nodeset"

// Load-aware quorum selection. The paper's load-sharing argument (Section
// 5) is that distinct coordinators may pick distinct quorums; the hint
// rotation spreads picks blindly, which is optimal only when endpoints are
// interchangeable. When a live load signal exists (see core.LoadTracker),
// a layout can instead pick the least-loaded quorum among its candidates:
// per-column argmin for grids, the k least-loaded members for majority
// voting. "Read-Write Quorum Systems Made Practical" (Whittaker et al.)
// shows this dominates random selection under skew.
//
// Contract: a loaded quorum is always a valid quorum of the same layout —
// ReadQuorumLoaded's result satisfies IsReadQuorum, WriteQuorumLoaded's
// satisfies IsWriteQuorum (enforced by the property tests in
// loaded_test.go). Load only changes *which* valid quorum is picked. Ties
// fall back to the hint rotation, so an all-equal load signal degrades to
// the existing hint behavior rather than pinning one quorum.

// LoadFunc reports a node's current load estimate. Higher means more
// loaded; the scale is caller-defined (the core layer feeds EWMA
// request rates). It is called on the quorum-selection path and must be
// cheap and allocation-free.
type LoadFunc func(nodeset.ID) float64

// loadedRule is implemented by compiled structures that support
// load-aware selection. Structures without it fall back to the hint path.
type loadedRule interface {
	readQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool)
	writeQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool)
}

// ReadQuorumLoaded returns a read quorum drawn from avail ∩ V minimizing
// the supplied load signal, falling back to ReadQuorum(avail, hint) when
// load is nil or the compiled structure has no load-aware form
// (hierarchical, wheel, uncompiled rules).
func (l *Layout) ReadQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	if load != nil {
		if lr, ok := l.impl.(loadedRule); ok {
			return lr.readQuorumLoaded(avail, load, hint)
		}
	}
	return l.impl.readQuorum(avail, hint)
}

// WriteQuorumLoaded is ReadQuorumLoaded's analogue for write quorums.
func (l *Layout) WriteQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	if load != nil {
		if lr, ok := l.impl.(loadedRule); ok {
			return lr.writeQuorumLoaded(avail, load, hint)
		}
	}
	return l.impl.writeQuorum(avail, hint)
}

// --- grid ------------------------------------------------------------------

// readQuorumLoaded picks, per column, the available member with the least
// load. Ties break toward the member the hint rotation would have picked
// first, so uniform load reproduces the hint distribution.
func (c *compiledGrid) readQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	if c.empty {
		return nodeset.Set{}, false
	}
	var q nodeset.Set
	for j, col := range c.cols {
		cnt := avail.IntersectionLen(col)
		if cnt == 0 {
			return nodeset.Set{}, false
		}
		start := positiveMod(hint+j+1, cnt)
		var best nodeset.ID
		bestLoad, bestD, found, ci := 0.0, 0, false, 0
		for _, id := range c.ids[j] {
			if !avail.Contains(id) {
				continue
			}
			d := ci - start
			if d < 0 {
				d += cnt
			}
			ci++
			w := load(id)
			if !found || w < bestLoad || (w == bestLoad && d < bestD) {
				found, best, bestLoad, bestD = true, id, w, d
			}
		}
		q.Add(best)
	}
	return q, true
}

// writeQuorumLoaded unions the loaded cover with the fully-available
// column whose MEAN member load is least (ties toward the hint rotation's
// scan order). Mean, not sum: a ratio'd grid has unequal column sizes, and
// comparing sums would pin every write onto the smallest column even on an
// idle system — the opposite of load sharing. Mean compares hotness alone,
// so an all-equal signal ties every column and the hint rotation decides.
// Where the cover is already a write quorum it is returned as is.
func (c *compiledGrid) writeQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	cover, ok := c.readQuorumLoaded(avail, load, hint)
	if !ok || c.coverIsWrite {
		return cover, ok
	}
	n := len(c.cols)
	bestJ, bestMean := -1, 0.0
	for dj := 0; dj < n; dj++ {
		j := positiveMod(hint+dj, n)
		if c.full[j] > 0 && avail.ContainsAll(c.cols[j]) {
			sum := 0.0
			for _, id := range c.ids[j] {
				sum += load(id)
			}
			mean := sum / float64(len(c.ids[j]))
			if bestJ < 0 || mean < bestMean {
				bestJ, bestMean = j, mean
			}
		}
	}
	if bestJ < 0 {
		return nodeset.Set{}, false
	}
	return cover.Union(c.cols[bestJ]), true
}

// --- majority / ROWA -------------------------------------------------------

// pickLoaded selects the size least-loaded members of avail ∩ V by
// repeated argmin (O(n·size); n is small — quorum systems shrink, not
// grow). Ties break toward the rotated position pick would have chosen.
func (c *compiledMajority) pickLoaded(avail nodeset.Set, load LoadFunc, size, hint int) (nodeset.Set, bool) {
	cnt := c.v.IntersectionLen(avail)
	if size <= 0 || cnt < size {
		return nodeset.Set{}, false
	}
	start := positiveMod(hint, cnt)
	var q nodeset.Set
	for picked := 0; picked < size; picked++ {
		var best nodeset.ID
		bestLoad, bestD, found, ci := 0.0, 0, false, 0
		for _, id := range c.ids {
			if !avail.Contains(id) {
				continue
			}
			d := ci - start
			if d < 0 {
				d += cnt
			}
			ci++
			if q.Contains(id) {
				continue
			}
			w := load(id)
			if !found || w < bestLoad || (w == bestLoad && d < bestD) {
				found, best, bestLoad, bestD = true, id, w, d
			}
		}
		q.Add(best)
	}
	return q, true
}

func (c *compiledMajority) readQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	return c.pickLoaded(avail, load, c.read, hint)
}

func (c *compiledMajority) writeQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	return c.pickLoaded(avail, load, c.write, hint)
}

func (c *compiledROWA) readQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	return c.one.pickLoaded(avail, load, 1, hint)
}

func (c *compiledROWA) writeQuorumLoaded(avail nodeset.Set, load LoadFunc, hint int) (nodeset.Set, bool) {
	// ROWA writes have exactly one candidate quorum (all of V); load
	// cannot change the pick.
	return c.writeQuorum(avail, hint)
}
