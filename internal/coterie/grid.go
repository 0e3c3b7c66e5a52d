package coterie

import (
	"fmt"
	"math"
	"strings"

	"coterie/internal/nodeset"
)

// GridShape describes the logical rectangular grid imposed on an ordered
// node set: M rows, N columns, and B unoccupied positions. The unoccupied
// positions are the row-major tail of the grid — for DefineGrid's
// near-square shapes that is the right-justified end of the bottom row
// (B < N, paper Section 5); DefineGridRatio's elongated shapes may leave
// larger tails.
type GridShape struct {
	M int // rows
	N int // columns
	B int // unoccupied positions
}

// DefineGrid computes the grid dimensions for n nodes following the paper's
// DefineGrid subroutine: m and n differ by at most one, m ≤ n (between
// n×(n+1) and (n+1)×n the rule chooses the former), and m·n ≥ N with the
// excess B = m·n − N < n.
func DefineGrid(n int) GridShape {
	if n <= 0 {
		return GridShape{}
	}
	root := math.Sqrt(float64(n))
	m := int(math.Floor(root))
	// Guard against floating-point error for perfect squares, e.g. if
	// Sqrt(k*k) evaluated to k-ε the floor would come out low.
	if (m+1)*(m+1) <= n {
		m++
	}
	cols := int(math.Ceil(root))
	if cols*cols < n {
		cols++
	}
	if m*cols < n {
		m++
	}
	return GridShape{M: m, N: cols, B: m*cols - n}
}

// ColumnHeight returns the number of physical nodes in column j (1-based).
// Nodes fill the grid row-major, so the unoccupied positions are the tail:
// with n = M·N−B occupied positions, column j holds ⌊(n−j)/N⌋+1 of them.
// For the near-square shapes of DefineGrid this is M or M−1 (the
// right-justified bottom-row gap); the formula also covers the elongated
// shapes of DefineGridRatio, where whole trailing rows may be partial.
func (g GridShape) ColumnHeight(j int) int {
	if j < 1 || j > g.N {
		return 0
	}
	n := g.Positions()
	if j > n {
		return 0
	}
	return (n-j)/g.N + 1
}

// Positions returns the total number of physical positions, i.e. the node
// count the shape was derived from.
func (g GridShape) Positions() int { return g.M*g.N - g.B }

func (g GridShape) String() string {
	if g.B == 0 {
		return fmt.Sprintf("%dx%d", g.M, g.N)
	}
	return fmt.Sprintf("%dx%d(-%d)", g.M, g.N, g.B)
}

// DefineGridRatio computes grid dimensions targeting the aspect parameter
// k ≈ rows/columns (paper, Section 5, requirement 2). The column count is
// the nearest integer to √(n/k) (clamped to [1, n]) and rows follow as
// ⌈n/columns⌉; unoccupied positions trail in row-major order.
func DefineGridRatio(n int, k float64) GridShape {
	if n <= 0 {
		return GridShape{}
	}
	if k <= 0 {
		return DefineGrid(n)
	}
	cols := int(math.Round(math.Sqrt(float64(n) / k)))
	if cols < 1 {
		cols = 1
	}
	if cols > n {
		cols = n
	}
	rows := (n + cols - 1) / cols
	return GridShape{M: rows, N: cols, B: rows*cols - n}
}

// Grid is the grid coterie rule (paper, Section 5). The nodes of V are
// arranged row-major into the grid returned by DefineGrid(|V|): the k-th
// node of V in increasing name order (k starting at 1) occupies row
// ⌊(k−1)/n⌋+1, column ((k−1) mod n)+1.
//
// A read quorum is a set covering every column. A write quorum additionally
// covers completely the physical nodes of some column. Both families are
// antichains (Section 3), and the constructors return minimal members only:
// on a ragged grid whose last column is one node high (2×2−1 for three
// members, 2×3−1 for five) every read cover already holds that column
// whole, so there the write quorums are exactly the read covers and
// WriteQuorum adds no second column (coverIsWrite). With Strict set, a
// full column means all M positions including unoccupied ones — the
// pre-optimization rule the paper's availability analysis assumes for the
// N = 3 grid (Figure 2); the default follows the paper's IsWriteQuorum
// pseudo-code, which only requires the physical part of a column (the
// Neuman optimization acknowledged at the end of the paper).
//
// Ratio, when positive, is the paper's aspect parameter k ≈ m/n
// (Section 5, requirement 2): larger values build taller grids with fewer
// columns, making reads cheaper (a read costs one node per column) at the
// price of bigger write quorums and lower write availability. Zero keeps
// the paper's near-square DefineGrid. All nodes must configure the same
// Ratio — it is part of the coterie rule the epoch mechanism assumes
// everyone agrees on.
type Grid struct {
	// Strict disables the partial-column optimization: columns shortened
	// by unoccupied positions can never be "fully covered".
	Strict bool
	// Ratio selects the target m/n aspect; 0 means near-square.
	Ratio float64
}

var _ Rule = Grid{}

// Name implements Rule.
func (g Grid) Name() string {
	if g.Strict {
		return "grid-strict"
	}
	return "grid"
}

// shape returns the grid dimensions this rule imposes on n nodes.
func (g Grid) shape(n int) GridShape {
	if g.Ratio > 0 {
		return DefineGridRatio(n, g.Ratio)
	}
	return DefineGrid(n)
}

// coverIsWrite reports whether every read cover of the shape is already a
// write quorum: some column that can count as full is one member high, so
// its only member — in every cover — covers it. Column heights do not
// increase with j, so the last column decides; under Strict a one-high
// column is full only when the whole grid is one row.
func (g Grid) coverIsWrite(shape GridShape) bool {
	return shape.ColumnHeight(shape.N) == 1 && (!g.Strict || shape.M == 1)
}

// Position returns the 1-based (row, column) of id within the grid over V,
// or ok=false if id ∉ V.
func (g Grid) Position(V nodeset.Set, id nodeset.ID) (row, col int, ok bool) {
	k, ok := V.OrderedNumber(id)
	if !ok {
		return 0, 0, false
	}
	shape := g.shape(V.Len())
	return (k-1)/shape.N + 1, (k-1)%shape.N + 1, true
}

// columnCover computes, for S ∩ V, how many distinct columns are
// represented and per-column how many distinct rows are covered.
func (g Grid) columnCover(V, S nodeset.Set) (shape GridShape, covered []int) {
	shape = g.shape(V.Len())
	covered = make([]int, shape.N+1) // 1-based; covered[j] = rows of col j present
	posSeen := make(map[int]bool)    // keyed by the position index k itself
	for _, id := range S.Intersect(V).IDs() {
		k, _ := V.OrderedNumber(id)
		if !posSeen[k] {
			posSeen[k] = true
			covered[(k-1)%shape.N+1]++
		}
	}
	return shape, covered
}

// IsReadQuorum implements Rule: S includes a read quorum over V iff S has a
// representative in every column of the grid.
func (g Grid) IsReadQuorum(V, S nodeset.Set) bool {
	if V.Empty() {
		return false
	}
	shape, covered := g.columnCover(V, S)
	for j := 1; j <= shape.N; j++ {
		if covered[j] == 0 {
			return false
		}
	}
	return true
}

// IsWriteQuorum implements Rule: S includes a write quorum over V iff S
// covers every column and fully covers some column.
func (g Grid) IsWriteQuorum(V, S nodeset.Set) bool {
	if V.Empty() {
		return false
	}
	shape, covered := g.columnCover(V, S)
	fullCol := false
	for j := 1; j <= shape.N; j++ {
		if covered[j] == 0 {
			return false
		}
		need := shape.M
		if !g.Strict {
			need = shape.ColumnHeight(j)
		}
		if need > 0 && covered[j] >= need {
			fullCol = true
		}
	}
	return fullCol
}

// columnMembers returns the members of V in column j (1-based), top to
// bottom, restricted to avail.
func (g Grid) columnMembers(V, avail nodeset.Set, shape GridShape, j int) []nodeset.ID {
	var out []nodeset.ID
	for i := 1; i <= shape.M; i++ {
		k := (i-1)*shape.N + j
		if k > V.Len() {
			break
		}
		id, ok := V.Nth(k)
		if !ok {
			break
		}
		if avail.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// ReadQuorum implements Rule: it picks one available node per column,
// rotating the starting row by hint for load sharing.
func (g Grid) ReadQuorum(V, avail nodeset.Set, hint int) (nodeset.Set, bool) {
	if V.Empty() {
		return nodeset.Set{}, false
	}
	shape := g.shape(V.Len())
	var q nodeset.Set
	for j := 1; j <= shape.N; j++ {
		members := g.columnMembers(V, avail, shape, j)
		if len(members) == 0 {
			return nodeset.Set{}, false
		}
		q.Add(members[positiveMod(hint+j, len(members))])
	}
	return q, true
}

// WriteQuorum implements Rule: it selects a fully available column —
// starting the search at a hint-dependent column for load sharing — plus a
// representative of every other column. Where the cover alone is a write
// quorum (coverIsWrite) it is the result: a second column would be dominated.
func (g Grid) WriteQuorum(V, avail nodeset.Set, hint int) (nodeset.Set, bool) {
	if V.Empty() {
		return nodeset.Set{}, false
	}
	shape := g.shape(V.Len())
	cover, ok := g.ReadQuorum(V, avail, hint)
	if !ok {
		return nodeset.Set{}, false
	}
	if g.coverIsWrite(shape) {
		return cover, true
	}
	for dj := 0; dj < shape.N; dj++ {
		j := positiveMod(hint+dj, shape.N) + 1
		need := shape.M
		if !g.Strict {
			need = shape.ColumnHeight(j)
		}
		if need == 0 {
			continue
		}
		members := g.columnMembers(V, avail, shape, j)
		if len(members) == need {
			q := cover.Clone()
			for _, id := range members {
				q.Add(id)
			}
			return q, true
		}
	}
	return nodeset.Set{}, false
}

// Render draws the grid over V as ASCII art, marking unoccupied positions
// with "--". It reproduces the layouts of the paper's Figures 1 and 2.
func (g Grid) Render(V nodeset.Set) string {
	shape := g.shape(V.Len())
	var b strings.Builder
	fmt.Fprintf(&b, "grid %s over %d nodes\n", shape, V.Len())
	width := 0
	for _, id := range V.IDs() {
		if l := len(id.String()); l > width {
			width = l
		}
	}
	for i := 1; i <= shape.M; i++ {
		for j := 1; j <= shape.N; j++ {
			k := (i-1)*shape.N + j
			if j > 1 {
				b.WriteByte(' ')
			}
			if id, ok := V.Nth(k); ok {
				fmt.Fprintf(&b, "%*s", width, id.String())
			} else {
				fmt.Fprintf(&b, "%*s", width, "--")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
