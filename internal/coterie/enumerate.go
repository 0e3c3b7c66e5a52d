package coterie

import "coterie/internal/nodeset"

// Candidate quorum enumeration for the optimized strategies.
//
// The optimizer needs an explicit list of the read and write quorums a
// compiled Layout admits so it can place probability mass on them. Small
// structures enumerate exactly; combinatorially large ones (wide grids,
// big majorities) are sampled deterministically so the candidate count
// stays bounded and recompute ticks stay cheap. Every returned set IS a
// quorum of the layout (minimal where the structure has a natural minimal
// form), which the property tests in enumerate_test.go assert against
// IsReadQuorum/IsWriteQuorum.

// DefaultEnumerateLimit caps the candidate quorums returned per block
// (reads, writes). 256 keeps the alias tables and per-candidate pick
// counters small while leaving the solver plenty of support to spread
// load over.
const DefaultEnumerateLimit = 256

// candidateEnumerator is implemented by compiled rules with a structural
// enumeration cheaper or more complete than hint sampling.
type candidateEnumerator interface {
	enumerateReads(limit int) []nodeset.Set
	enumerateWrites(limit int) []nodeset.Set
}

// EnumerateReadQuorums returns up to limit distinct read quorums of the
// layout, assuming every epoch member is available. limit <= 0 selects
// DefaultEnumerateLimit.
func (l *Layout) EnumerateReadQuorums(limit int) []nodeset.Set {
	if limit <= 0 {
		limit = DefaultEnumerateLimit
	}
	if e, ok := l.impl.(candidateEnumerator); ok {
		return e.enumerateReads(limit)
	}
	return l.sampleQuorums(limit, l.impl.readQuorum)
}

// EnumerateWriteQuorums is EnumerateReadQuorums' analogue for writes.
func (l *Layout) EnumerateWriteQuorums(limit int) []nodeset.Set {
	if limit <= 0 {
		limit = DefaultEnumerateLimit
	}
	if e, ok := l.impl.(candidateEnumerator); ok {
		return e.enumerateWrites(limit)
	}
	return l.sampleQuorums(limit, l.impl.writeQuorum)
}

// sampleQuorums is the structural fallback (hierarchical, wheel, custom
// rules): walk the rule's own hint space and deduplicate the quorums it
// constructs. The hint walk is deterministic, so two nodes compiling the
// same epoch enumerate identical candidate lists.
func (l *Layout) sampleQuorums(limit int, build func(avail nodeset.Set, hint int) (nodeset.Set, bool)) []nodeset.Set {
	n := l.v.Len()
	if n == 0 {
		return nil
	}
	// The hint space that matters is bounded by the structure size; probe a
	// generous multiple so rotation-based builders expose their full orbit,
	// then stop once new hints stop producing new quorums.
	probes := 8*n*n + 16
	out := make([]nodeset.Set, 0, minInt(limit, 16))
	seen := make(map[string]struct{}, minInt(limit, 16))
	for h := 0; h < probes && len(out) < limit; h++ {
		q, ok := build(l.v, h)
		if !ok {
			continue
		}
		k := setKey(q)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, q)
	}
	return out
}

// setKey renders a set's bit words into a map key. Trailing zero words are
// elided so sparse sets key identically regardless of backing capacity.
func setKey(s nodeset.Set) string {
	var buf [nodeset.MaxNodes / 8]byte
	n := 0
	for i := 0; i < nodeset.MaxNodes/64; i++ {
		w := s.Word(i)
		buf[n+0] = byte(w)
		buf[n+1] = byte(w >> 8)
		buf[n+2] = byte(w >> 16)
		buf[n+3] = byte(w >> 24)
		buf[n+4] = byte(w >> 32)
		buf[n+5] = byte(w >> 40)
		buf[n+6] = byte(w >> 48)
		buf[n+7] = byte(w >> 56)
		n += 8
	}
	for n > 0 && buf[n-1] == 0 {
		n--
	}
	return string(buf[:n])
}

// enumMix64 is the splitmix64 finalizer used to derive deterministic
// per-sample member choices during sampled enumeration.
func enumMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- grid ------------------------------------------------------------------

// enumerateReads walks the cross-product of column members: one member per
// column. When the product exceeds limit it strides through the mixed-radix
// index space so samples spread across all columns instead of clustering in
// the low columns.
func (c *compiledGrid) enumerateReads(limit int) []nodeset.Set {
	if c.empty {
		return nil
	}
	total := 1
	for _, ids := range c.ids {
		if len(ids) == 0 {
			return nil
		}
		if total > limit/len(ids)+1 {
			total = limit + 1 // saturate; avoid overflow
			break
		}
		total *= len(ids)
	}
	if total <= limit {
		// Exact cross-product in mixed-radix order.
		out := make([]nodeset.Set, 0, total)
		for idx := 0; idx < total; idx++ {
			var q nodeset.Set
			rem := idx
			for _, ids := range c.ids {
				q.Add(ids[rem%len(ids)])
				rem /= len(ids)
			}
			out = append(out, q)
		}
		return out
	}
	// Sampled: a splitmix64 stream per sample chooses one member per column
	// independently, so every column varies across the candidate list.
	out := make([]nodeset.Set, 0, limit)
	seen := make(map[string]struct{}, limit)
	for k := 0; len(out) < limit && k < 4*limit; k++ {
		var q nodeset.Set
		for j, ids := range c.ids {
			u := enumMix64(uint64(k)<<16 | uint64(j))
			q.Add(ids[int(u%uint64(len(ids)))])
		}
		key := setKey(q)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, q)
	}
	return out
}

// enumerateWrites pairs each full column with a cover of the remaining
// columns: for each usable column j, emit quorums column[j] ∪ {one member
// per other column}, striding the cover space like enumerateReads. Where
// every cover is a write quorum the minimal write quorums are the covers.
func (c *compiledGrid) enumerateWrites(limit int) []nodeset.Set {
	if c.empty {
		return nil
	}
	if c.coverIsWrite {
		return c.enumerateReads(limit)
	}
	usable := make([]int, 0, len(c.cols))
	for j := range c.cols {
		if c.full[j] > 0 && len(c.ids[j]) == c.full[j] {
			usable = append(usable, j)
		}
	}
	if len(usable) == 0 {
		return nil
	}
	per := limit / len(usable)
	if per < 1 {
		per = 1
	}
	out := make([]nodeset.Set, 0, limit)
	seen := make(map[string]struct{}, limit)
	for _, j := range usable {
		// Cover product over the other columns.
		total := 1
		for jj, ids := range c.ids {
			if jj == j {
				continue
			}
			if total > per/len(ids)+1 {
				total = per + 1 // saturate
				break
			}
			total *= len(ids)
		}
		added := 0
		emit := func(q nodeset.Set) {
			key := setKey(q)
			if _, dup := seen[key]; dup {
				return
			}
			seen[key] = struct{}{}
			out = append(out, q)
			added++
		}
		if total <= per {
			for idx := 0; idx < total; idx++ {
				q := c.cols[j].Clone()
				rem := idx
				for jj, ids := range c.ids {
					if jj == j {
						continue
					}
					q.Add(ids[rem%len(ids)])
					rem /= len(ids)
				}
				emit(q)
			}
			continue
		}
		for k := 0; added < per && k < 4*per; k++ {
			q := c.cols[j].Clone()
			for jj, ids := range c.ids {
				if jj == j {
					continue
				}
				u := enumMix64(uint64(j)<<32 | uint64(k)<<16 | uint64(jj))
				q.Add(ids[int(u%uint64(len(ids)))])
			}
			emit(q)
		}
	}
	return out
}

// --- majority --------------------------------------------------------------

// enumerate returns up to limit distinct size-k subsets of the epoch. Small
// C(n,k) enumerates exactly via revolving-door order; large spaces fall back
// to rotation sampling (contiguous circular windows plus strided windows),
// which still gives the solver per-node degrees of freedom.
func (c *compiledMajority) enumerate(k, limit int) []nodeset.Set {
	n := len(c.ids)
	if k <= 0 || k > n {
		return nil
	}
	if binomialAtMost(n, k, limit) {
		out := make([]nodeset.Set, 0, limit)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		for {
			var q nodeset.Set
			for _, i := range idx {
				q.Add(c.ids[i])
			}
			out = append(out, q)
			// Next combination in lexicographic order.
			i := k - 1
			for i >= 0 && idx[i] == n-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
		return out
	}
	// Sampled: circular windows at every start, then strided windows, until
	// the limit fills. Deterministic and node-ID symmetric.
	out := make([]nodeset.Set, 0, limit)
	for stride := 1; stride < n && len(out) < limit; stride++ {
		for start := 0; start < n && len(out) < limit; start++ {
			var q nodeset.Set
			for i := 0; i < k; i++ {
				q.Add(c.ids[(start+i*stride)%n])
			}
			if q.Len() == k {
				out = append(out, q)
			}
		}
	}
	return dedupSets(out)
}

func (c *compiledMajority) enumerateReads(limit int) []nodeset.Set {
	return c.enumerate(c.read, limit)
}

func (c *compiledMajority) enumerateWrites(limit int) []nodeset.Set {
	return c.enumerate(c.write, limit)
}

// binomialAtMost reports whether C(n,k) <= limit without overflowing.
func binomialAtMost(n, k, limit int) bool {
	if k > n-k {
		k = n - k
	}
	acc := 1
	for i := 1; i <= k; i++ {
		acc = acc * (n - k + i) / i
		if acc > limit {
			return false
		}
	}
	return acc <= limit
}

// --- ROWA ------------------------------------------------------------------

func (c *compiledROWA) enumerateReads(limit int) []nodeset.Set {
	ids := c.v.IDs()
	if len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]nodeset.Set, 0, len(ids))
	for _, id := range ids {
		out = append(out, nodeset.New(id))
	}
	return out
}

func (c *compiledROWA) enumerateWrites(int) []nodeset.Set {
	if c.v.Empty() {
		return nil
	}
	return []nodeset.Set{c.v.Clone()}
}

// dedupSets removes duplicate sets preserving first-seen order.
func dedupSets(in []nodeset.Set) []nodeset.Set {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]struct{}, len(in))
	out := in[:0]
	for _, s := range in {
		k := setKey(s)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, s)
	}
	return out
}
