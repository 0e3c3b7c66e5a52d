package core

import (
	"context"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

// Write-through. A committed write reached a quorum; the epoch members
// outside it — the bystanders — are sent the same update as a one-way
// Section 4.1 direct-apply, with no permission round and no reply. A
// bystander applies it only when it is neither stale nor recovering, sits
// exactly one version behind and no write holds or awaits its lock (the
// push waits for readers only, so sending it never waits on another
// coordinator), so a dropped, duplicated, late or refused push is
// harmless, and a delivered one leaves the replica current: whichever
// quorum the next operation draws, and whichever node coordinates it, the
// speculative LockPrepare predicts the right version and the write costs
// one round trip. A bystander that misses a push is not repaired by later
// pushes (it is no longer one version behind); it catches up the way the
// paper repairs any replica a partial write skipped — marked stale by the
// next write whose quorum draws it, then brought current by propagation.
//
// It is part of the write protocol, not an option: it runs on every
// committed write.

// pushCapacityFloor is the share of its epoch's largest declared capacity
// below which a member is sent no write-through. In the load model the
// weighted strategy solves (Whittaker et al.), a push is write load on
// its receiver just as a quorum seat is, and a member the operator
// declared weak is one the solver steers quorums around: pushing every
// write to it would hand back the load the strategy took away. One half
// separates "somewhat smaller machine" from "do not lean on this node";
// it is a constant because the only input that should move the outcome is
// the capacity the operator already declares.
const pushCapacityFloor = 0.5

// pushTargets returns the members of epoch that are sent a write-through of
// a write which reached written — the bystanders at or above
// pushCapacityFloor of the epoch's largest capacity — and how many
// bystanders that rule left out. Homogeneous capacity (nil) leaves nobody
// out. It depends on nothing but its arguments, so every coordinator of a
// deployment picks the same set.
func pushTargets(epoch, written nodeset.Set, capacity coterie.CapacityFunc) (targets nodeset.Set, skipped int) {
	targets = epoch.Diff(written)
	if capacity == nil {
		return targets, 0
	}
	var buf [16]nodeset.ID
	largest := 0.0
	for _, id := range epoch.AppendIDs(buf[:0]) {
		largest = max(largest, capacity(id))
	}
	for _, id := range targets.AppendIDs(buf[:0]) {
		if capacity(id) < pushCapacityFloor*largest {
			targets.Remove(id)
			skipped++
		}
	}
	return targets, skipped
}

// pushThrough sends msg — the committed write, as a direct-apply — one-way
// to the bystanders of epoch: its members outside written that the
// capacity rule admits. msg.More may alias the caller's scratch; it is
// copied before anything is sent, because a one-way send may outlive the
// call.
func (c *Coordinator) pushThrough(ctx context.Context, epoch, written nodeset.Set, msg replica.ApplyDirect) {
	targets, skipped := pushTargets(epoch, written, c.opts.Capacity)
	c.metrics.pushSkipped.Add(uint64(skipped))
	if targets.Empty() {
		return
	}
	msg.More = append([]replica.Update(nil), msg.More...)
	c.metrics.pushSent.Add(uint64(targets.Len()))
	c.net.SendAsync(ctx, c.item.Self(), targets, replica.Envelope{Item: c.item.Name(), Msg: msg})
}
