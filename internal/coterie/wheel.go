package coterie

import "coterie/internal/nodeset"

// Wheel is the wheel coterie: the lowest-named node of V is the hub and
// the rest form the rim. Quorums are {hub, any one rim node} or the entire
// rim. Any two quorums intersect: two hub quorums share the hub, a hub
// quorum and the rim share the rim member, and the rim shares itself.
//
// The wheel gives the smallest quorums of any coterie (2 nodes in the
// common case, independent of N) but concentrates every operation on the
// hub; the full-rim quorum is the escape hatch when the hub is down. It is
// included as a contrast point for the load-sharing and availability
// experiments: the grid pays ~√N-node quorums for hub-free load spreading,
// the wheel pays a hub bottleneck for constant-size quorums. Under the
// epoch mechanism the hub role migrates automatically — after an epoch
// change the new epoch's lowest-named member is the hub.
//
// Read and write quorums coincide (the wheel is a symmetric coterie).
//
// Over two nodes the rim is the single spoke, so "the entire rim" is {spoke}
// and {hub, spoke} contains it: as an antichain the two-node wheel has the
// one quorum {spoke}, and the hub alone is none. The predicate always said
// so; the constructor used to return {hub, spoke} and now returns the rim.
type Wheel struct{}

var _ Rule = Wheel{}

// Name implements Rule.
func (Wheel) Name() string { return "wheel" }

// hubAndRim splits V; ok is false for empty V.
func (Wheel) hubAndRim(V nodeset.Set) (hub nodeset.ID, rim nodeset.Set, ok bool) {
	hub, ok = V.Min()
	if !ok {
		return 0, nodeset.Set{}, false
	}
	rim = V.Clone()
	rim.Remove(hub)
	return hub, rim, true
}

// isQuorum reports whether S includes a wheel quorum over V.
func (w Wheel) isQuorum(V, S nodeset.Set) bool {
	hub, rim, ok := w.hubAndRim(V)
	if !ok {
		return false
	}
	s := S.Intersect(V)
	if rim.Empty() {
		// Single-node universe: the hub alone is the quorum.
		return s.Contains(hub)
	}
	if s.Contains(hub) && s.Intersects(rim) {
		return true
	}
	return rim.Subset(s)
}

// IsReadQuorum implements Rule.
func (w Wheel) IsReadQuorum(V, S nodeset.Set) bool { return w.isQuorum(V, S) }

// IsWriteQuorum implements Rule.
func (w Wheel) IsWriteQuorum(V, S nodeset.Set) bool { return w.isQuorum(V, S) }

// quorum constructs a quorum from avail ∩ V, rotating the rim partner by
// hint. The full-rim fallback covers hub failures.
func (w Wheel) quorum(V, avail nodeset.Set, hint int) (nodeset.Set, bool) {
	hub, rim, ok := w.hubAndRim(V)
	if !ok {
		return nodeset.Set{}, false
	}
	a := avail.Intersect(V)
	if rim.Empty() {
		if a.Contains(hub) {
			return nodeset.New(hub), true
		}
		return nodeset.Set{}, false
	}
	if a.Contains(hub) && rim.Len() > 1 {
		rimAvail := a.Intersect(rim).IDs()
		if len(rimAvail) > 0 {
			partner := rimAvail[positiveMod(hint, len(rimAvail))]
			return nodeset.New(hub, partner), true
		}
	}
	if rim.Subset(a) {
		return rim.Clone(), true
	}
	return nodeset.Set{}, false
}

// ReadQuorum implements Rule.
func (w Wheel) ReadQuorum(V, avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return w.quorum(V, avail, hint)
}

// WriteQuorum implements Rule.
func (w Wheel) WriteQuorum(V, avail nodeset.Set, hint int) (nodeset.Set, bool) {
	return w.quorum(V, avail, hint)
}
