package coterie

import "coterie/internal/nodeset"

// Layout is a coterie rule compiled against one specific epoch list V.
//
// The Rule interface re-derives the logical structure (grid positions, tree
// splits, hub election) from V on every call, which costs ordered-number
// lookups and heap allocations on every quorum check. A Layout performs
// that derivation once: per-column (grid), per-subtree (hierarchical) and
// per-spoke (wheel) membership is precomputed as nodeset.Set bitmasks plus
// the required cover counts, so the quorum predicates reduce to word-level
// AND/popcount operations with zero heap allocations, and quorum
// construction walks precomputed member lists instead of re-deriving
// positions.
//
// A Layout is valid exactly as long as its epoch: compile one Layout per
// (rule, epoch) pair and discard it when the epoch changes (see Cache for
// the epoch-number-keyed idiom the protocol layers use). Layouts are
// immutable after compilation and safe for concurrent use.
//
// Equivalence contract: for every S, avail and hint,
//
//	l.IsReadQuorum(S)          == rule.IsReadQuorum(V, S)
//	l.IsWriteQuorum(S)         == rule.IsWriteQuorum(V, S)
//	l.ReadQuorum(avail, hint)  == rule.ReadQuorum(V, avail, hint)
//	l.WriteQuorum(avail, hint) == rule.WriteQuorum(V, avail, hint)
//
// which the property tests in layout_test.go enforce against randomly drawn
// epochs and candidate sets.
type Layout struct {
	rule Rule
	v    nodeset.Set
	impl compiledRule
}

// compiledRule is the per-structure backend of a Layout. The predicate
// methods must not allocate.
type compiledRule interface {
	isReadQuorum(S nodeset.Set) bool
	isWriteQuorum(S nodeset.Set) bool
	readQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool)
	writeQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool)
}

// Compile builds the Layout of rule over the epoch list V. Rules without a
// specialized compiled form fall back to delegating every call to the rule
// itself (correct, but with the rule's own per-call costs).
func Compile(rule Rule, V nodeset.Set) *Layout {
	l := &Layout{rule: rule, v: V.Clone()}
	switch r := rule.(type) {
	case Grid:
		l.impl = compileGrid(r, l.v)
	case Hierarchical:
		l.impl = compileHierarchical(r, l.v)
	case Wheel:
		l.impl = compileWheel(l.v)
	case Majority:
		l.impl = compileMajority(r, l.v)
	case ROWA:
		l.impl = compileROWA(l.v)
	default:
		l.impl = fallbackRule{rule: rule, v: l.v}
	}
	return l
}

// Rule returns the rule the layout was compiled from.
func (l *Layout) Rule() Rule { return l.rule }

// Epoch returns the epoch list the layout was compiled for. The returned
// set must not be modified.
func (l *Layout) Epoch() nodeset.Set { return l.v }

// IsReadQuorum reports whether S includes a read quorum over the compiled
// epoch. It performs no heap allocations.
func (l *Layout) IsReadQuorum(S nodeset.Set) bool { return l.impl.isReadQuorum(S) }

// IsWriteQuorum reports whether S includes a write quorum over the compiled
// epoch. It performs no heap allocations.
func (l *Layout) IsWriteQuorum(S nodeset.Set) bool { return l.impl.isWriteQuorum(S) }

// ReadQuorum returns a read quorum drawn from avail ∩ V, equal to the
// quorum the source rule would construct for the same hint.
func (l *Layout) ReadQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return l.impl.readQuorum(avail, hint)
}

// WriteQuorum is ReadQuorum's analogue for write quorums.
func (l *Layout) WriteQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return l.impl.writeQuorum(avail, hint)
}

// GridShape reports the grid dimensions (rows × cols) the layout was
// compiled to when its rule is a grid coterie, and ok=false for every other
// structure. Observability layers use it to annotate quorum selections with
// the logical structure they were drawn from.
func (l *Layout) GridShape() (rows, cols int, ok bool) {
	if g, isGrid := l.impl.(*compiledGrid); isGrid && !g.empty {
		return g.rows, g.colCount, true
	}
	return 0, 0, false
}

// fallbackRule adapts an uncompiled Rule to the compiledRule interface.
type fallbackRule struct {
	rule Rule
	v    nodeset.Set
}

func (f fallbackRule) isReadQuorum(S nodeset.Set) bool  { return f.rule.IsReadQuorum(f.v, S) }
func (f fallbackRule) isWriteQuorum(S nodeset.Set) bool { return f.rule.IsWriteQuorum(f.v, S) }
func (f fallbackRule) readQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return f.rule.ReadQuorum(f.v, avail, hint)
}
func (f fallbackRule) writeQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return f.rule.WriteQuorum(f.v, avail, hint)
}

// --- grid ------------------------------------------------------------------

// compiledGrid holds one bitmask per grid column. A read quorum intersects
// every column mask; a write quorum additionally contains some column mask
// entirely (subject to the strict rule's full-height requirement).
type compiledGrid struct {
	empty bool
	// rows and colCount record the logical shape (M × N) the grid was
	// compiled to, for introspection (Layout.GridShape).
	rows     int
	colCount int
	cols     []nodeset.Set  // cols[j] = members of column j+1
	ids      [][]nodeset.ID // column members top-to-bottom (construction order)
	// full[j] is the member count a "fully covered" column j+1 requires, or
	// 0 when the column can never be full (strict rule, column shortened by
	// unoccupied positions).
	full []int
	// coverIsWrite is Grid.coverIsWrite for the compiled shape: some usable
	// column is one member high, so a read cover is a write quorum and every
	// write picker returns it as is. Decided here, once; false on every grid
	// whose shortest column is two high (3×3 and up), which pay one branch.
	coverIsWrite bool
}

func compileGrid(g Grid, V nodeset.Set) *compiledGrid {
	c := &compiledGrid{empty: V.Empty()}
	if c.empty {
		return c
	}
	shape := g.shape(V.Len())
	c.rows, c.colCount = shape.M, shape.N
	c.coverIsWrite = g.coverIsWrite(shape)
	c.cols = make([]nodeset.Set, shape.N)
	c.ids = make([][]nodeset.ID, shape.N)
	c.full = make([]int, shape.N)
	for j := 0; j < shape.N; j++ {
		h := shape.ColumnHeight(j + 1)
		if !g.Strict || h == shape.M {
			c.full[j] = h
		}
		c.ids[j] = make([]nodeset.ID, 0, h)
	}
	// Members fill the grid row-major in increasing name order, so walking
	// V in order assigns column (k-1) mod N and keeps each column's member
	// list in top-to-bottom row order.
	k := 0
	for _, id := range V.IDs() {
		j := k % shape.N
		c.cols[j].Add(id)
		c.ids[j] = append(c.ids[j], id)
		k++
	}
	return c
}

func (c *compiledGrid) isReadQuorum(S nodeset.Set) bool {
	if c.empty {
		return false
	}
	for _, col := range c.cols {
		if !S.Intersects(col) {
			return false
		}
	}
	return true
}

func (c *compiledGrid) isWriteQuorum(S nodeset.Set) bool {
	if c.empty {
		return false
	}
	anyFull := false
	for j, col := range c.cols {
		if !S.Intersects(col) {
			return false
		}
		if !anyFull && c.full[j] > 0 && S.ContainsAll(col) {
			anyFull = true
		}
	}
	return anyFull
}

// pickAvail returns the i-th (0-based) member of column j present in avail,
// given cnt = |avail ∩ cols[j]| > i.
func (c *compiledGrid) pickAvail(j, i int, avail nodeset.Set) nodeset.ID {
	for _, id := range c.ids[j] {
		if avail.Contains(id) {
			if i == 0 {
				return id
			}
			i--
		}
	}
	panic("coterie: compiled grid column pick out of range")
}

func (c *compiledGrid) readQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	if c.empty {
		return nodeset.Set{}, false
	}
	var q nodeset.Set
	for j, col := range c.cols {
		cnt := avail.IntersectionLen(col)
		if cnt == 0 {
			return nodeset.Set{}, false
		}
		// Same rotation as Grid.ReadQuorum: column number is 1-based there.
		q.Add(c.pickAvail(j, positiveMod(hint+j+1, cnt), avail))
	}
	return q, true
}

func (c *compiledGrid) writeQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	cover, ok := c.readQuorum(avail, hint)
	if !ok || c.coverIsWrite {
		return cover, ok
	}
	n := len(c.cols)
	for dj := 0; dj < n; dj++ {
		j := positiveMod(hint+dj, n)
		// A column is usable iff it can be full and all its members are
		// available — |avail ∩ col| == |col| == full[j].
		if c.full[j] > 0 && avail.ContainsAll(c.cols[j]) {
			q := cover.Union(c.cols[j])
			return q, true
		}
	}
	return nodeset.Set{}, false
}

// --- hierarchical ----------------------------------------------------------

// hqcNode is one node of the flattened quorum tree: either a leaf bound to
// a concrete member ID, or an internal node owning a child range within the
// shared children index slice and a majority threshold.
type hqcNode struct {
	leaf     bool
	id       nodeset.ID // leaf only
	children []int      // internal only: indices into compiledHierarchical.nodes
	need     int        // internal only: majority of children required
}

type compiledHierarchical struct {
	nodes []hqcNode
	root  int
	n     int
}

func compileHierarchical(h Hierarchical, V nodeset.Set) *compiledHierarchical {
	c := &compiledHierarchical{n: V.Len(), root: -1}
	if c.n == 0 {
		return c
	}
	leaves := V.IDs()
	c.root = c.buildTree(h, leaves, 0, len(leaves))
	return c
}

// buildTree mirrors Hierarchical.children's near-equal contiguous splits
// over the leaf range [lo, hi) and returns the index of the subtree root.
func (c *compiledHierarchical) buildTree(h Hierarchical, leaves []nodeset.ID, lo, hi int) int {
	if hi-lo == 1 {
		c.nodes = append(c.nodes, hqcNode{leaf: true, id: leaves[lo]})
		return len(c.nodes) - 1
	}
	bounds := h.children(lo, hi)
	k := len(bounds) - 1
	children := make([]int, 0, k)
	for i := 0; i < k; i++ {
		children = append(children, c.buildTree(h, leaves, bounds[i], bounds[i+1]))
	}
	c.nodes = append(c.nodes, hqcNode{children: children, need: k/2 + 1})
	return len(c.nodes) - 1
}

func (c *compiledHierarchical) has(i int, S nodeset.Set) bool {
	nd := &c.nodes[i]
	if nd.leaf {
		return S.Contains(nd.id)
	}
	got := 0
	for _, ch := range nd.children {
		if c.has(ch, S) {
			got++
		}
	}
	return got >= nd.need
}

func (c *compiledHierarchical) isReadQuorum(S nodeset.Set) bool {
	return c.root >= 0 && c.has(c.root, S)
}

func (c *compiledHierarchical) isWriteQuorum(S nodeset.Set) bool {
	return c.isReadQuorum(S)
}

// build mirrors Hierarchical.buildQuorum (same child rotation and hint
// division) over the precompiled tree, appending chosen member IDs to q.
func (c *compiledHierarchical) build(i int, avail nodeset.Set, hint int, q *[]nodeset.ID) bool {
	nd := &c.nodes[i]
	if nd.leaf {
		if !avail.Contains(nd.id) {
			return false
		}
		*q = append(*q, nd.id)
		return true
	}
	k := len(nd.children)
	got := 0
	for idx := 0; idx < k && got < nd.need; idx++ {
		ch := nd.children[positiveMod(hint+idx, k)]
		mark := len(*q)
		if c.build(ch, avail, hint/k, q) {
			got++
		} else {
			*q = (*q)[:mark]
		}
	}
	return got >= nd.need
}

func (c *compiledHierarchical) quorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	if c.root < 0 {
		return nodeset.Set{}, false
	}
	picks := make([]nodeset.ID, 0, c.n)
	if !c.build(c.root, avail, hint, &picks) {
		return nodeset.Set{}, false
	}
	return nodeset.New(picks...), true
}

func (c *compiledHierarchical) readQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return c.quorum(avail, hint)
}

func (c *compiledHierarchical) writeQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return c.quorum(avail, hint)
}

// --- wheel -----------------------------------------------------------------

type compiledWheel struct {
	empty  bool
	hub    nodeset.ID
	rim    nodeset.Set
	rimIDs []nodeset.ID
}

func compileWheel(V nodeset.Set) *compiledWheel {
	hub, ok := V.Min()
	if !ok {
		return &compiledWheel{empty: true}
	}
	rim := V.Clone()
	rim.Remove(hub)
	return &compiledWheel{hub: hub, rim: rim, rimIDs: rim.IDs()}
}

func (c *compiledWheel) isQuorum(S nodeset.Set) bool {
	if c.empty {
		return false
	}
	if len(c.rimIDs) == 0 {
		return S.Contains(c.hub)
	}
	if S.Contains(c.hub) && S.Intersects(c.rim) {
		return true
	}
	return S.ContainsAll(c.rim)
}

func (c *compiledWheel) isReadQuorum(S nodeset.Set) bool  { return c.isQuorum(S) }
func (c *compiledWheel) isWriteQuorum(S nodeset.Set) bool { return c.isQuorum(S) }

func (c *compiledWheel) quorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	if c.empty {
		return nodeset.Set{}, false
	}
	if len(c.rimIDs) == 0 {
		if avail.Contains(c.hub) {
			return nodeset.New(c.hub), true
		}
		return nodeset.Set{}, false
	}
	// A one-spoke rim is itself the only minimal quorum (see Wheel).
	if avail.Contains(c.hub) && len(c.rimIDs) > 1 {
		if cnt := avail.IntersectionLen(c.rim); cnt > 0 {
			i := positiveMod(hint, cnt)
			for _, id := range c.rimIDs {
				if avail.Contains(id) {
					if i == 0 {
						return nodeset.New(c.hub, id), true
					}
					i--
				}
			}
		}
	}
	if avail.ContainsAll(c.rim) {
		return c.rim.Clone(), true
	}
	return nodeset.Set{}, false
}

func (c *compiledWheel) readQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return c.quorum(avail, hint)
}

func (c *compiledWheel) writeQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return c.quorum(avail, hint)
}

// --- majority / ROWA -------------------------------------------------------

type compiledMajority struct {
	v           nodeset.Set
	ids         []nodeset.ID
	read, write int
}

func compileMajority(m Majority, V nodeset.Set) *compiledMajority {
	r, w := m.Thresholds(V.Len())
	return &compiledMajority{v: V, ids: V.IDs(), read: r, write: w}
}

func (c *compiledMajority) isReadQuorum(S nodeset.Set) bool {
	return c.read > 0 && c.v.IntersectionLen(S) >= c.read
}

func (c *compiledMajority) isWriteQuorum(S nodeset.Set) bool {
	return c.write > 0 && c.v.IntersectionLen(S) >= c.write
}

// pick mirrors pickRotated: the candidates are avail ∩ V in increasing
// order, and the quorum is the circular index range [start, start+size).
func (c *compiledMajority) pick(avail nodeset.Set, size, hint int) (nodeset.Set, bool) {
	cnt := c.v.IntersectionLen(avail)
	if size <= 0 || cnt < size {
		return nodeset.Set{}, false
	}
	start := positiveMod(hint, cnt)
	var q nodeset.Set
	ci := 0
	for _, id := range c.ids {
		if !avail.Contains(id) {
			continue
		}
		d := ci - start
		if d < 0 {
			d += cnt
		}
		if d < size {
			q.Add(id)
		}
		ci++
	}
	return q, true
}

func (c *compiledMajority) readQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return c.pick(avail, c.read, hint)
}

func (c *compiledMajority) writeQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return c.pick(avail, c.write, hint)
}

type compiledROWA struct {
	v   nodeset.Set
	one *compiledMajority // read side: any single member
}

func compileROWA(V nodeset.Set) *compiledROWA {
	return &compiledROWA{v: V, one: &compiledMajority{v: V, ids: V.IDs(), read: 1, write: V.Len()}}
}

func (c *compiledROWA) isReadQuorum(S nodeset.Set) bool {
	return !c.v.Empty() && S.Intersects(c.v)
}

func (c *compiledROWA) isWriteQuorum(S nodeset.Set) bool {
	return !c.v.Empty() && S.ContainsAll(c.v)
}

func (c *compiledROWA) readQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return c.one.pick(avail, 1, hint)
}

func (c *compiledROWA) writeQuorum(avail nodeset.Set, hint int) (nodeset.Set, bool) {
	if c.v.Empty() || !avail.ContainsAll(c.v) {
		return nodeset.Set{}, false
	}
	return c.v.Clone(), true
}
