// Package onecopy records operation histories and checks them for one-copy
// serializability — the paper's consistency criterion (Section 3): the
// concurrent execution of operations on replicated data must be equivalent
// to a serial execution of those operations on non-replicated data.
//
// The protocols under test expose the serialization order directly: every
// committed write produces a unique version number, and every read reports
// the version it observed. A history is one-copy serializable — in fact
// linearizable — iff
//
//  1. committed writes carry distinct, gap-free version numbers;
//  2. version order refines real-time order (an operation that finished
//     before another started cannot be serialized after it);
//  3. every read returns exactly the value produced by replaying the
//     writes with versions ≤ the version it reports.
//
// Real time is modeled with a logical clock: Begin stamps an operation's
// invocation, EndWrite/EndRead its response.
package onecopy

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"coterie/internal/replica"
)

// Kind distinguishes history events.
type Kind int

const (
	// KindWrite is a committed write.
	KindWrite Kind = iota
	// KindRead is a completed read.
	KindRead
	// KindMaybeWrite is a write whose outcome is unknown: the operation
	// returned an error after its commit phase may have started (e.g. the
	// coordinator lost contact mid-2PC). It may occupy a version number
	// the recorder never learned, so the checker treats it as a wildcard
	// when validating version continuity and skips value replay for reads
	// whose prefix it might intersect.
	KindMaybeWrite
)

// Event is one completed operation in a history.
type Event struct {
	Kind    Kind
	Start   uint64 // logical invocation time
	End     uint64 // logical response time
	Version uint64 // version produced (write) or observed (read)
	Update  replica.Update
	Value   []byte // value returned (read)
}

// recorderShards is the number of independent event buffers a Recorder
// stripes appends across. 16 shards keep the probability that two
// concurrent coordinators collide on one shard low at the fleet sizes the
// loadgen drives (tens of goroutines) while the merge stays trivial.
const recorderShards = 16

// shard is one striped event buffer, padded to a cache line so two shards
// never share one (false sharing would reintroduce the contention the
// striping removes).
type shard struct {
	mu     sync.Mutex
	events []Event
	_      [96]byte
}

// Recorder accumulates a history. It is safe for concurrent use: the
// logical clock is one atomic, and completed events append to one of
// recorderShards buffers chosen by the invocation stamp, so concurrent
// recorders of different operations rarely touch the same mutex. Events
// and Check merge the shards deterministically (by end stamp — unique,
// since every End* draws a fresh clock tick).
type Recorder struct {
	initial []byte
	clock   atomic.Uint64
	shards  [recorderShards]shard
}

// NewRecorder starts a history over a data item with the given initial
// value.
func NewRecorder(initial []byte) *Recorder {
	cp := make([]byte, len(initial))
	copy(cp, initial)
	return &Recorder{initial: cp}
}

// Begin stamps an operation invocation and returns the stamp.
func (r *Recorder) Begin() uint64 { return r.clock.Add(1) }

// record appends an event to the shard selected by its invocation stamp.
// Keying on Start (not End) spreads even bursts of simultaneous
// completions, since the starts were drawn earlier and independently.
func (r *Recorder) record(e Event) {
	s := &r.shards[e.Start%recorderShards]
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// EndWrite records a committed write that produced version v.
func (r *Recorder) EndWrite(start uint64, v uint64, u replica.Update) {
	end := r.clock.Add(1)
	r.record(Event{Kind: KindWrite, Start: start, End: end, Version: v, Update: u})
}

// EndMaybeWrite records a write whose outcome is unknown (errored after
// the commit phase may have begun).
func (r *Recorder) EndMaybeWrite(start uint64, u replica.Update) {
	end := r.clock.Add(1)
	r.record(Event{Kind: KindMaybeWrite, Start: start, End: end, Update: u})
}

// EndRead records a completed read that observed version v with the given
// value.
func (r *Recorder) EndRead(start uint64, v uint64, value []byte) {
	end := r.clock.Add(1)
	cp := make([]byte, len(value))
	copy(cp, value)
	r.record(Event{Kind: KindRead, Start: start, End: end, Version: v, Value: cp})
}

// Events returns the recorded history, merged across shards into end-stamp
// order. End stamps are unique (each is a fresh clock tick), so the merge
// is a deterministic total order regardless of which shard held an event.
//
// From here on, reads that returned equal bytes at one version share one
// copy of them, in the recorder and in what it returns: a read-heavy history
// of millions of operations otherwise holds its item's value once per read
// while it is checked. Recording still copies every read's value.
func (r *Recorder) Events() []Event {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	out := make([]Event, 0, n)
	seen := make(map[uint64][]byte)
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for j := range s.events {
			if e := &s.events[j]; e.Kind == KindRead {
				if v, ok := seen[e.Version]; !ok {
					seen[e.Version] = e.Value
				} else if bytes.Equal(v, e.Value) {
					e.Value = v
				}
			}
		}
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End < out[j].End })
	return out
}

// Check verifies the recorded history. A nil result means the history is
// one-copy serializable.
func (r *Recorder) Check() error {
	return CheckHistory(r.initial, r.Events())
}

// CheckHistory verifies an explicit history against an initial value, in
// O(n log n): it sorts, and never compares two events directly. The
// quadratic reading of the three conditions, one pair of events at a time,
// is kept in onecopy_test.go as the oracle this checker is held to.
//
// Histories may contain KindMaybeWrite events; each can account for at
// most one version gap in the definite writes, and reads whose version
// prefix includes a gap skip the value-replay check (their bytes cannot be
// reconstructed without knowing the uncertain writes' contents).
func CheckHistory(initial []byte, events []Event) error {
	var writes, reads []Event
	maybes := 0
	for _, e := range events {
		switch e.Kind {
		case KindWrite:
			writes = append(writes, e)
		case KindRead:
			reads = append(reads, e)
		case KindMaybeWrite:
			maybes++
		default:
			return fmt.Errorf("onecopy: unknown event kind %d", e.Kind)
		}
	}

	// (1) Unique write versions; gaps only where uncertain writes could
	// have landed.
	sort.Slice(writes, func(i, j int) bool { return writes[i].Version < writes[j].Version })
	maxVersion := uint64(0)
	for i, w := range writes {
		if w.Version == 0 {
			return fmt.Errorf("onecopy: committed write with version 0")
		}
		if i > 0 && writes[i-1].Version == w.Version {
			return fmt.Errorf("onecopy: two committed writes share version %d", w.Version)
		}
		maxVersion = w.Version
	}
	for _, rd := range reads {
		maxVersion = max(maxVersion, rd.Version)
	}
	if gaps := int(maxVersion) - len(writes); gaps < 0 || gaps > maybes {
		return fmt.Errorf("onecopy: %d version gaps below v%d but only %d uncertain writes", gaps, maxVersion, maybes)
	}

	// (2) Real-time order. "An operation that ended before X started has a
	// version above X's" becomes a prefix maximum over operations sorted by
	// end stamp, looked up at X's start stamp.
	wEnded := newPrefixMax(writes)
	for _, w := range writes {
		if v, ok := wEnded.before(w.Start); ok && v > w.Version {
			return fmt.Errorf("onecopy: write v%d finished before write v%d started but serializes after it", v, w.Version)
		}
	}
	wStarted := newSuffixMin(writes)
	rEnded := newPrefixMax(reads)
	for _, rd := range reads {
		if v, ok := wEnded.before(rd.Start); ok && v > rd.Version {
			return fmt.Errorf("onecopy: read observed v%d but write v%d had already completed", rd.Version, v)
		}
		if v, ok := wStarted.after(rd.End); ok && v <= rd.Version {
			return fmt.Errorf("onecopy: read observed v%d before write v%d started", rd.Version, v)
		}
		if v, ok := rEnded.before(rd.Start); ok && v > rd.Version {
			return fmt.Errorf("onecopy: read observed v%d after an earlier read observed v%d", rd.Version, v)
		}
	}

	// (3) Value replay along the definite prefix (versions 1..v all known),
	// visiting reads in version order so one running value suffices.
	definite := uint64(0)
	for definite < uint64(len(writes)) && writes[definite].Version == definite+1 {
		definite++
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].Version < reads[j].Version })
	cur := append([]byte(nil), initial...)
	at := uint64(0)
	for _, rd := range reads {
		if rd.Version > definite {
			break
		}
		for ; at < rd.Version; at++ {
			cur = applyUpdate(cur, writes[at].Update)
		}
		if !bytes.Equal(rd.Value, cur) {
			return fmt.Errorf("onecopy: read at version %d returned %q, replay gives %q", rd.Version, rd.Value, cur)
		}
	}
	return nil
}

// prefixMax answers "the highest version among events that ended strictly
// before stamp t".
type prefixMax struct {
	ends []uint64
	max  []uint64
}

func newPrefixMax(events []Event) prefixMax {
	byEnd := append([]Event(nil), events...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
	p := prefixMax{ends: make([]uint64, len(byEnd)), max: make([]uint64, len(byEnd))}
	for i, e := range byEnd {
		p.ends[i], p.max[i] = e.End, e.Version
		if i > 0 {
			p.max[i] = max(p.max[i], p.max[i-1])
		}
	}
	return p
}

func (p prefixMax) before(t uint64) (uint64, bool) {
	n := sort.Search(len(p.ends), func(i int) bool { return p.ends[i] >= t })
	if n == 0 {
		return 0, false
	}
	return p.max[n-1], true
}

// suffixMin answers "the lowest version among events that started strictly
// after stamp t".
type suffixMin struct {
	starts []uint64
	min    []uint64
}

func newSuffixMin(events []Event) suffixMin {
	byStart := append([]Event(nil), events...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	s := suffixMin{starts: make([]uint64, len(byStart)), min: make([]uint64, len(byStart))}
	for i := len(byStart) - 1; i >= 0; i-- {
		s.starts[i], s.min[i] = byStart[i].Start, byStart[i].Version
		if i+1 < len(byStart) {
			s.min[i] = min(s.min[i], s.min[i+1])
		}
	}
	return s
}

func (s suffixMin) after(t uint64) (uint64, bool) {
	n := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > t })
	if n == len(s.starts) {
		return 0, false
	}
	return s.min[n], true
}

// applyUpdate mirrors replica's update semantics for replay.
func applyUpdate(value []byte, u replica.Update) []byte {
	end := u.Offset + len(u.Data)
	if end > len(value) {
		grown := make([]byte, end)
		copy(grown, value)
		value = grown
	}
	copy(value[u.Offset:], u.Data)
	return value
}
