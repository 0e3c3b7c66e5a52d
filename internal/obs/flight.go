package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/nodeset"
)

// The flight recorder keeps the last N completed operation traces in a
// fixed ring. Each trace records the protocol-meaningful lifecycle of one
// read, write or epoch change: the quorum selected (and, for grid
// coteries, the grid shape it was drawn from), per-phase round trips,
// epoch redirects, partial-write stale marks with desired version numbers,
// lock conflicts, heavy-procedure fallbacks, and the final outcome.
//
// Recording discipline (the zero-alloc contract): an operation borrows an
// ActiveOp from a pool, appends events into its fixed-size array, and on
// End the trace value is copied into a ring slot under that slot's mutex.
// Steady state allocates nothing; the only contention is between an
// operation completing into a slot and a snapshot copying it out.

// MaxTraceEvents caps the events kept per trace; further events are
// counted (Trace.Dropped) but not stored. 24 covers every phase of the
// deepest path (heavy write with redirects and stale marks) with room for
// retries.
const MaxTraceEvents = 24

// maskWords bounds the node IDs a trace event can carry to
// 64*maskWords-1. Events store node sets as fixed inline bit masks so
// recording them never allocates; deployments beyond 256 nodes truncate
// (Mask.Truncated reports the loss).
const maskWords = 4

// Mask is a fixed-size inline copy of a node set.
type Mask struct {
	Words     [maskWords]uint64
	Truncated bool
}

// MaskOf captures s into a Mask without allocating.
func MaskOf(s nodeset.Set) Mask {
	var m Mask
	for i := 0; i < maskWords; i++ {
		m.Words[i] = s.Word(i)
	}
	for i := maskWords; i*64 < nodeset.MaxNodes; i++ {
		if s.Word(i) != 0 {
			m.Truncated = true
			break
		}
	}
	return m
}

// Set expands the mask back into a node set (exposition/tests; allocates).
func (m Mask) Set() nodeset.Set {
	var s nodeset.Set
	for i, w := range m.Words {
		for w != 0 {
			s.Add(nodeset.ID(i*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return s
}

// OpKind classifies a traced operation.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	OpEpochChange
	// OpServe: a replica-side server span — one node's handling of a
	// protocol message belonging to a sampled distributed trace. OpSeq
	// holds the parent span ID; Coordinator holds the serving node.
	OpServe
)

// Outcome is a traced operation's final disposition.
type Outcome uint8

const (
	// OutcomeUnknown marks a trace that ended without classification.
	OutcomeUnknown Outcome = iota
	// OutcomeOK: the operation succeeded (for epoch checks: a new epoch
	// was installed).
	OutcomeOK
	// OutcomeNoChange: an epoch check found nothing to do.
	OutcomeNoChange
	// OutcomeUnavailable: no quorum with a current replica was reachable.
	OutcomeUnavailable
	// OutcomeConflict: aborted after repeated lock races.
	OutcomeConflict
	// OutcomeError: any other failure (uncertain commit, codec error...).
	OutcomeError
)

// EventKind classifies one lifecycle event within a trace.
type EventKind uint8

const (
	// EvQuorum: a quorum was selected. Nodes = the quorum; N = its size;
	// A/B = grid rows/cols when the layout is a grid (else 0).
	EvQuorum EventKind = iota
	// EvPhase: one RPC round completed. Phase identifies it; Dur is the
	// round's duration; N = responders; A = busy (answered-but-refused).
	EvPhase
	// EvRedirect: a response carried a later epoch than the coordinator's
	// cached one. A = cached epoch number, B = the epoch learned.
	EvRedirect
	// EvStaleMark: the write marked replicas stale instead of updating
	// them. Nodes = the stale set; A = the desired version they must
	// reach; N = the set's size.
	EvStaleMark
	// EvLockBusy: replicas answered the lock round but refused the lock
	// (contention). Nodes = the busy set; N = its size.
	EvLockBusy
	// EvHeavy: the operation fell back to the paper's HeavyProcedure
	// (polling all replicas).
	EvHeavy
	// EvEpochInstall: an epoch change committed. Nodes = the new epoch
	// list; A = the new epoch number; N = the list's size.
	EvEpochInstall
	// EvBatch: a group-commit flush merged several writes into one 2PC
	// pass. N = the batch size; A = the first version assigned; B = the
	// last version assigned (A..B is the version range).
	EvBatch
	// EvRefused: a lock round lost the replicas' conflict order and will be
	// run again under a fresh operation ID. Nodes = the members that
	// refused; N = their number; A/B = coordinator and sequence number of
	// an operation the round lost to.
	EvRefused
)

// Phase identifies the RPC round an EvPhase event timed.
type Phase uint8

const (
	PhaseNone Phase = iota
	// PhasePoll: the epoch checker's lock-free StateQuery round.
	PhasePoll
	// PhaseLock: the phase-1 lock/state-collection round.
	PhaseLock
	// PhasePrepare: the 2PC prepare round (updates, stale marks, epochs).
	PhasePrepare
	// PhaseCommit: the 2PC commit round.
	PhaseCommit
	// PhaseFetch: a read's value fetch from the freshest replica.
	PhaseFetch
)

// Event is one lifecycle event. When is the offset from the operation's
// start; the meaning of Dur, N, A, B and Nodes depends on Kind (see the
// EventKind constants).
type Event struct {
	Kind  EventKind
	Phase Phase
	When  time.Duration
	Dur   time.Duration
	N     int32
	A, B  uint64
	Nodes Mask
}

// Trace is one completed operation's record.
type Trace struct {
	// Seq is the trace's completion sequence number (1-based, strictly
	// increasing across the recorder's lifetime).
	Seq         uint64
	Kind        OpKind
	Coordinator nodeset.ID
	OpSeq       uint64
	Item        string
	// TraceID/ParentSpan tie this per-node trace into a cluster-wide
	// distributed trace (zero when the operation was not sampled).
	// ParentSpan is the span ID of the client operation that caused it.
	TraceID    uint64
	ParentSpan uint64
	Start      time.Time
	Elapsed    time.Duration
	Outcome    Outcome
	Version    uint64
	NumEvents  int32 // stored events (≤ MaxTraceEvents)
	Dropped    int32 // events beyond the cap, counted but not stored
	Events     [MaxTraceEvents]Event
}

// EventsSlice returns the stored events.
func (t *Trace) EventsSlice() []Event { return t.Events[:t.NumEvents] }

// slot is one ring cell. The mutex serializes a completing operation
// copying its trace in against snapshots copying it out (and, under
// wraparound, against another operation completing into the same cell).
type slot struct {
	mu sync.Mutex
	t  Trace
}

// FlightRecorder is a fixed-size ring of completed operation traces. A nil
// *FlightRecorder is a no-op recorder: Begin returns a nil *ActiveOp whose
// methods all no-op.
type FlightRecorder struct {
	seq   atomic.Uint64
	slots []slot
	pool  sync.Pool // *ActiveOp
}

// NewFlightRecorder returns a recorder keeping the last capacity completed
// traces (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	f := &FlightRecorder{slots: make([]slot, capacity)}
	f.pool.New = func() any { return new(ActiveOp) }
	return f
}

// Cap returns the ring capacity; 0 on nil.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Completed returns how many traces have ever completed; traces older than
// the last Cap() of them have been overwritten.
func (f *FlightRecorder) Completed() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// ActiveOp is an in-flight operation's trace under construction. It
// belongs to the goroutine driving the operation; methods are not safe for
// concurrent use on one ActiveOp (operations are single-driver by
// construction). A nil *ActiveOp no-ops everywhere.
type ActiveOp struct {
	rec *FlightRecorder
	t   Trace
}

// Begin starts a trace. On a nil recorder it returns nil, which every
// ActiveOp method accepts.
func (f *FlightRecorder) Begin(kind OpKind, coordinator nodeset.ID, opSeq uint64, item string) *ActiveOp {
	if f == nil {
		return nil
	}
	a := f.pool.Get().(*ActiveOp)
	a.rec = f
	a.t = Trace{Kind: kind, Coordinator: coordinator, OpSeq: opSeq, Item: item, Start: time.Now()}
	return a
}

// Elapsed returns the time since the operation began — the `began`
// argument for a later Phase call. Zero on nil, so disabled recording
// performs no clock reads.
func (a *ActiveOp) Elapsed() time.Duration {
	if a == nil {
		return 0
	}
	return time.Since(a.t.Start)
}

// event appends e, stamping When; events beyond the cap are counted as
// dropped.
func (a *ActiveOp) event(e Event) {
	if a == nil {
		return
	}
	e.When = time.Since(a.t.Start)
	if a.t.NumEvents < MaxTraceEvents {
		a.t.Events[a.t.NumEvents] = e
		a.t.NumEvents++
		return
	}
	a.t.Dropped++
}

// Trace stamps the distributed trace identity onto the record so every
// node's flight trace for one logical operation shares a trace ID. A
// zero/invalid tc leaves the record untagged.
func (a *ActiveOp) Trace(tc TraceContext) {
	if a == nil || !tc.Valid() {
		return
	}
	a.t.TraceID = tc.TraceID
	a.t.ParentSpan = tc.SpanID
}

// Quorum records the selected quorum; rows/cols describe the grid shape it
// was drawn from (0 for non-grid rules).
func (a *ActiveOp) Quorum(q nodeset.Set, rows, cols int) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvQuorum, N: int32(q.Len()), A: uint64(rows), B: uint64(cols), Nodes: MaskOf(q)})
}

// Phase records one completed RPC round: began is the ActiveOp.Elapsed()
// value captured before the round, responders the nodes that answered,
// busy those that answered but refused.
func (a *ActiveOp) Phase(p Phase, began time.Duration, responders, busy int) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvPhase, Phase: p, Dur: time.Since(a.t.Start) - began, N: int32(responders), A: uint64(busy)})
}

// Redirect records an epoch redirect from the cached epoch number to a
// later one learned from a response.
func (a *ActiveOp) Redirect(cached, learned uint64) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvRedirect, A: cached, B: learned})
}

// StaleMark records the replicas a partial write marked stale and the
// desired version they must reach.
func (a *ActiveOp) StaleMark(stale nodeset.Set, desired uint64) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvStaleMark, N: int32(stale.Len()), A: desired, Nodes: MaskOf(stale)})
}

// LockBusy records replicas that answered a lock round but refused the
// lock (contention, not failure).
func (a *ActiveOp) LockBusy(busy nodeset.Set) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvLockBusy, N: int32(busy.Len()), Nodes: MaskOf(busy)})
}

// Refused records a lock round refused by the given members in favour of
// the older operation lostCoord#lostSeq.
func (a *ActiveOp) Refused(by nodeset.Set, lostCoord, lostSeq uint64) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvRefused, N: int32(by.Len()), A: lostCoord, B: lostSeq, Nodes: MaskOf(by)})
}

// Heavy records the fallback to the paper's HeavyProcedure.
func (a *ActiveOp) Heavy() {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvHeavy})
}

// EpochInstall records a committed epoch change.
func (a *ActiveOp) EpochInstall(epoch nodeset.Set, epochNum uint64) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvEpochInstall, N: int32(epoch.Len()), A: epochNum, Nodes: MaskOf(epoch)})
}

// Batch records a group-commit flush of size writes assigned the version
// range [first, last].
func (a *ActiveOp) Batch(size int, first, last uint64) {
	if a == nil {
		return
	}
	a.event(Event{Kind: EvBatch, N: int32(size), A: first, B: last})
}

// End finishes the trace, publishes it into the ring, and recycles the
// ActiveOp. The ActiveOp must not be used afterwards.
func (a *ActiveOp) End(o Outcome, version uint64) {
	if a == nil {
		return
	}
	a.t.Elapsed = time.Since(a.t.Start)
	a.t.Outcome = o
	a.t.Version = version
	f := a.rec
	seq := f.seq.Add(1)
	a.t.Seq = seq
	s := &f.slots[(seq-1)%uint64(len(f.slots))]
	s.mu.Lock()
	// Two completions can map to the same slot with their stores reordered
	// relative to their sequence assignment; keep the newer trace.
	if seq > s.t.Seq {
		s.t = a.t
	}
	s.mu.Unlock()
	a.rec = nil
	a.t.Item = "" // drop the string reference before pooling
	f.pool.Put(a)
}

// Traces copies the completed traces currently in the ring, oldest first.
func (f *FlightRecorder) Traces() []Trace {
	if f == nil {
		return nil
	}
	out := make([]Trace, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		if s.t.Seq != 0 {
			out = append(out, s.t)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
