package replica

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

func TestDecisionLogRecordAndQuery(t *testing.T) {
	h := newHarness(t, 2, nil, Config{})
	o := h.item(0).NextOp()
	h.item(0).RecordDecision(o, true)
	reply := h.call(t, 1, 0, DecisionQuery{Op: o}).(DecisionReply)
	if !reply.Known || !reply.Commit {
		t.Errorf("reply = %+v", reply)
	}
	// Unknown op.
	reply = h.call(t, 1, 0, DecisionQuery{Op: h.item(0).NextOp()}).(DecisionReply)
	if reply.Known {
		t.Errorf("unknown op reported known: %+v", reply)
	}
	// Abort decision.
	o2 := h.item(0).NextOp()
	h.item(0).RecordDecision(o2, false)
	reply = h.call(t, 1, 0, DecisionQuery{Op: o2}).(DecisionReply)
	if !reply.Known || reply.Commit {
		t.Errorf("abort reply = %+v", reply)
	}
}

// TestDecisionRingWrapAround: the log keeps exactly the last maxDecisions
// outcomes in slots that stop growing at that bound: 4 bytes a slot, and a
// table of 65 chunk entries.
func TestDecisionRingWrapAround(t *testing.T) {
	var l decisionLog
	const extra = 100
	for seq := uint64(1); seq <= maxDecisions+extra; seq++ {
		l.record(decision{seq: seq, vc: seq<<1 | 1})
		if seq == 10 && l.bytes() > 128 {
			t.Fatalf("%d ring bytes after ten records, want at most 128: a quiet item must stay small", l.bytes())
		}
	}
	if got, want := l.bytes(), maxDecisions*4+(decisionChunks+1)*entryBytes; got != want {
		t.Fatalf("the full ring is %d bytes, want %d", got, want)
	}
	for _, seq := range []uint64{1, extra} {
		if _, known := l.lookup(seq); known {
			t.Errorf("seq %d survived %d later records", seq, maxDecisions)
		}
	}
	for _, seq := range []uint64{extra + 1, maxDecisions, maxDecisions + extra} {
		d, known := l.lookup(seq)
		if !known || !d.applies(seq) || d.applies(seq+1) {
			t.Errorf("seq %d: known=%v decision=%+v", seq, known, d)
		}
	}
}

// TestDecisionRingLatestRecordWins: a round of an operation aborts, a
// later round of the same operation commits; the termination query must
// see the commit, before and after the ring has wrapped.
func TestDecisionRingLatestRecordWins(t *testing.T) {
	h := newHarness(t, 1, nil, Config{})
	it := h.item(0)
	for _, fill := range []int{0, maxDecisions - 1} {
		for i := 0; i < fill; i++ {
			it.RecordDecision(it.NextOp(), false)
		}
		o := it.NextOp()
		it.RecordDecision(o, false)
		it.RecordCommit(o, 7)
		if d, known := it.decided(o); !known || !d.applies(0) || !d.applies(7) || d.applies(8) {
			t.Errorf("after %d fill records: known=%v decision=%+v, want the commit of version 7", fill, known, d)
		}
	}
}

// TestDecisionRingAmnesiaReset: the log is stable state and is lost with
// the rest of it.
func TestDecisionRingAmnesiaReset(t *testing.T) {
	h := newHarness(t, 1, nil, Config{})
	it := h.item(0)
	o := it.NextOp()
	it.RecordCommit(o, 1)
	it.Amnesia()
	if _, known := it.decided(o); known {
		t.Error("decision survived amnesia")
	}
	if it.decisions.head != nil || it.decisions.chunks != nil {
		t.Error("amnesia kept the ring's memory")
	}
}

// TestDecisionUnknownCounted: an unanswerable termination query is the
// one event that pins a participant for good, so it has a counter.
func TestDecisionUnknownCounted(t *testing.T) {
	reg := obs.New()
	h := newHarness(t, 2, nil, Config{Obs: reg})
	o := h.item(0).NextOp()
	h.item(0).RecordDecision(o, true)
	h.call(t, 1, 0, DecisionQuery{Op: o})
	unknown := reg.Counter("replica_decision_unknown_total")
	if n := unknown.Load(); n != 0 {
		t.Fatalf("a known decision counted as unknown (%d)", n)
	}
	if reply := h.call(t, 1, 0, DecisionQuery{Op: h.item(0).NextOp()}).(DecisionReply); reply.Known {
		t.Fatalf("reply = %+v", reply)
	}
	if n := unknown.Load(); n != 1 {
		t.Errorf("replica_decision_unknown_total = %d, want 1", n)
	}
}

// TestDecisionRingDoesNotAllocate: once the ring is full, recording and
// querying allocate nothing — the log's memory no longer follows the
// number of operations completed.
func TestDecisionRingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := newHarness(t, 1, nil, Config{})
	it := h.item(0)
	for i := 0; i < maxDecisions; i++ {
		it.RecordDecision(it.NextOp(), true)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		o := it.NextOp()
		it.RecordDecision(o, false)
		it.RecordCommit(o, 3)
		if d, known := it.decided(o); !known || !d.applies(3) {
			t.Fatal("fresh record not found")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state record+lookup allocates %.1f times per run", allocs)
	}
}

// refRing is the decision log as it was before its slots were packed: a
// ring of 16-byte records, the first chunk's worth in a slice that doubles,
// whole chunks after it. The packed ring must answer every lookup as it does.
type refRing struct {
	head   []decision
	chunks []*[decisionChunk]decision
	n      int
}

func (l *refRing) slot(k int) *decision {
	i := k % maxDecisions
	if i < decisionChunk {
		return &l.head[i]
	}
	return &l.chunks[i/decisionChunk-1][i%decisionChunk]
}

func (l *refRing) record(d decision) {
	switch {
	case l.n >= maxDecisions:
	case l.n < decisionChunk:
		if l.n == len(l.head) {
			grown := make([]decision, max(4, 2*l.n))
			copy(grown, l.head)
			l.head = grown
		}
	case l.n%decisionChunk == 0:
		l.chunks = append(l.chunks, new([decisionChunk]decision))
	}
	*l.slot(l.n) = d
	l.n++
}

func (l *refRing) lookup(seq uint64) (decision, bool) {
	for k := l.n - 1; k >= 0 && k >= l.n-maxDecisions; k-- {
		if d := *l.slot(k); d.seq == seq {
			return d, true
		}
	}
	return decision{}, false
}

// ringPair feeds the packed ring and the reference the same records and
// checks that they answer every query alike.
type ringPair struct {
	got  decisionLog
	want refRing
	seqs []uint64 // every sequence number recorded, in order
}

func (p *ringPair) record(d decision) {
	p.got.record(d)
	p.want.record(d)
	p.seqs = append(p.seqs, d.seq)
}

func (p *ringPair) check(t testing.TB, seq uint64) {
	t.Helper()
	d, known := p.got.lookup(seq)
	wd, wknown := p.want.lookup(seq)
	if d != wd || known != wknown {
		t.Fatalf("after %d records, seq %d: packed ring (%+v, %v), reference (%+v, %v)", p.want.n, seq, d, known, wd, wknown)
	}
}

// streamShape is how often a stream of records departs from the common
// case — one commit per fresh sequence number, the version a little higher
// each time.
type streamShape struct {
	seqJump, outOfOrder, abortThenCommit, versionZero, versionJump float64
}

// draw records n records of shape s into p, querying it every few records.
func (s streamShape) draw(t *testing.T, rng *rand.Rand, p *ringPair, n int) {
	seq, ver := rng.Uint64()>>1, rng.Uint64()>>40
	jump := func(by int) uint64 { return 1<<by + uint64(rng.Int63n(1<<(by+6))) }
	for p.want.n < n {
		seq++
		ver += 1 + uint64(rng.Intn(4))
		if rng.Float64() < s.seqJump {
			if rng.Intn(2) == 0 {
				seq += jump(15)
			} else {
				seq -= jump(15)
			}
		}
		if rng.Float64() < s.versionJump {
			if by := jump(14); rng.Intn(2) == 0 || by >= ver {
				ver += by
			} else {
				ver -= by
			}
		}
		at := seq
		if rng.Float64() < s.outOfOrder {
			at -= uint64(1 + rng.Intn(3000))
		}
		switch r := rng.Float64(); {
		case r < s.abortThenCommit:
			p.record(decision{seq: at, vc: 0})
			p.record(decision{seq: at, vc: ver<<1 | 1})
		case r < s.abortThenCommit+s.versionZero:
			p.record(decision{seq: at, vc: uint64(rng.Intn(2))})
		default:
			p.record(decision{seq: at, vc: ver<<1 | 1})
		}
		if p.want.n%101 == 0 {
			p.queries(t, rng)
		}
	}
}

// queries asks p for sequence numbers recorded just now, long ago and right
// at the edge of retention, and for ones never recorded.
func (p *ringPair) queries(t testing.TB, rng *rand.Rand) {
	last := len(p.seqs) - 1
	for _, back := range []int{0, 1, rng.Intn(maxDecisions), maxDecisions - 1, maxDecisions, maxDecisions + 1, rng.Intn(len(p.seqs))} {
		if back <= last {
			p.check(t, p.seqs[last-back])
			p.check(t, p.seqs[last-back]+1)
		}
	}
	p.check(t, rng.Uint64())
}

// TestDecisionRingMatchesReference: the packed ring keeps exactly what the
// 16-byte ring kept. Streams of four and more laps, clean and ragged —
// sequence numbers that jump by 2^15 and more either way or arrive out of
// order, aborts followed by the commit of the same sequence number,
// version-0 records, versions that jump by 2^14 and more either way — get
// the same answer from both rings for every query, misses included.
func TestDecisionRingMatchesReference(t *testing.T) {
	for i, s := range []struct {
		name  string
		shape streamShape
	}{
		{"clean", streamShape{}},
		{"rare-jumps", streamShape{seqJump: 0.001, versionJump: 0.001, abortThenCommit: 0.01, versionZero: 0.05}},
		{"jumpy", streamShape{seqJump: 0.03, versionJump: 0.03}},
		{"out-of-order", streamShape{outOfOrder: 0.2, abortThenCommit: 0.1}},
		{"aborts", streamShape{abortThenCommit: 0.3, versionZero: 0.3}},
		{"ragged", streamShape{seqJump: 0.1, outOfOrder: 0.1, abortThenCommit: 0.1, versionZero: 0.1, versionJump: 0.1}},
	} {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			var p ringPair
			// Phases of the shape alternate with clean ones: a chunk widened
			// on one lap is overwritten on the next.
			for laps := 1; laps <= 4; laps++ {
				s.shape.draw(t, rng, &p, laps*maxDecisions-rng.Intn(decisionChunk))
				streamShape{}.draw(t, rng, &p, p.want.n+maxDecisions/3)
			}
			for _, seq := range p.seqs[len(p.seqs)-maxDecisions-decisionChunk:] {
				p.check(t, seq)
			}
			// At most the 16-byte ring with its chunk table, and 2 KB.
			if got, limit := p.got.bytes(), maxDecisions*int(unsafe.Sizeof(decision{}))+512+2<<10; got > limit {
				t.Errorf("the ring holds %d bytes, want at most %d", got, limit)
			}
		})
	}
}

// TestDecisionSlotEdges: every delta a slot holds comes back exact, the first
// one past either edge is refused rather than wrapped, and version 0 packs
// whatever the base.
func TestDecisionSlotEdges(t *testing.T) {
	base := decisionBase{seq: 1 << 40, ver: 1 << 30}
	for _, ds := range []int64{-slotSeqSpan - 1, -slotSeqSpan, -1, 0, 1, slotSeqSpan - 1, slotSeqSpan} {
		for _, dv := range []int64{slotVerZero - 1, slotVerZero, slotVerZero + 1, -1, 0, 1, -slotVerZero - 1, -slotVerZero, -1 << 30} {
			for commit := uint64(0); commit < 2; commit++ {
				d := decision{seq: base.seq + uint64(ds), vc: (base.ver+uint64(dv))<<1 | commit}
				fits := ds >= -slotSeqSpan && ds < slotSeqSpan && (dv > slotVerZero && dv < -slotVerZero || dv == -1<<30)
				b := base
				s, ok := b.pack(d)
				if ok != fits || ok && b.unpack(s) != d {
					t.Errorf("seq%+d version%+d commit %d: packed=%v (want %v), unpacked %+v", ds, dv, commit, ok, fits, b.unpack(s))
				}
			}
		}
	}
}

// TestDecisionBytesGauge: replica_decision_bytes is the sum of the rings'
// bytes, and amnesia takes an item's ring out of it.
func TestDecisionBytesGauge(t *testing.T) {
	reg := obs.New()
	h := newHarness(t, 2, nil, Config{Obs: reg})
	gauge := reg.Gauge("replica_decision_bytes")
	a, b := h.item(0), h.item(1)
	for i := 0; i < 300; i++ {
		a.RecordCommit(a.NextOp(), uint64(i+1))
	}
	for i := 0; i < 10; i++ {
		b.RecordDecision(b.NextOp(), false)
	}
	if got, want := gauge.Load(), int64(a.decisions.bytes()+b.decisions.bytes()); got != want || want == 0 {
		t.Fatalf("replica_decision_bytes = %d, the rings hold %d", got, want)
	}
	a.Amnesia()
	if got, want := gauge.Load(), int64(b.decisions.bytes()); got != want {
		t.Errorf("after amnesia replica_decision_bytes = %d, want %d", got, want)
	}
}

// FuzzDecisionRing decodes bytes into records and queries — small steps and
// large jumps of sequence number and version either way, abort-then-commit
// pairs, runs of in-order records long enough to lap the ring — and checks
// every query against the reference ring.
func FuzzDecisionRing(f *testing.F) {
	f.Add([]byte{4, 200, 0, 0, 1, 0, 1, 20, 5, 3, 0, 0, 4, 200, 0, 0, 2, 128, 0, 40, 5, 0, 100, 0})
	f.Add([]byte{0, 1, 1, 1, 0, 255, 3, 2, 3, 0, 0, 0, 4, 255, 255, 0, 7, 1, 2, 3, 6, 250, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p ringPair
		seq, ver := uint64(1), uint64(1)
		record := func(vc uint64) { p.record(decision{seq: seq, vc: vc}) }
		for ; len(data) >= 4; data = data[4:] {
			x, y, z := data[1], data[2], data[3]
			wide := uint64(int64(int16(uint16(x)<<8 | uint16(y))))
			switch data[0] % 8 {
			case 0: // a step
				seq += uint64(int64(int8(x)))
				ver += uint64(int64(int8(y)))
				v := ver
				if z&2 == 0 {
					v = 0
				}
				record(v<<1 | uint64(z&1))
			case 1:
				seq += wide << (z % 48)
			case 2:
				ver += wide << (z % 48)
			case 3:
				record(0)
				record(ver<<1 | 1)
			case 4: // a run, up to twice round the ring
				for n := 1 + int(x)<<6 | int(y); n > 0; n-- {
					seq, ver = seq+1, ver+1
					record(ver<<1 | 1)
				}
			case 5:
				p.check(t, seq-(uint64(x)<<8|uint64(y)))
			case 6:
				p.check(t, seq+uint64(int64(int8(x))))
			case 7:
				p.check(t, wide<<(z%64)^uint64(x))
			}
			p.check(t, seq)
		}
	})
}

// BenchmarkDecisionRing times a record into a full ring and a lookup that
// misses on one, for the packed ring and for the reference. The miss is the
// packed ring's worst: every chunk's base within reach of the sequence number,
// so every slot is compared.
func BenchmarkDecisionRing(b *testing.B) {
	type ring interface {
		record(decision)
		lookup(uint64) (decision, bool)
	}
	rings := map[string]func() ring{
		"":           func() ring { return packedRing{new(decisionLog)} },
		"reference/": func() ring { return new(refRing) },
	}
	for prefix, ringOf := range rings {
		b.Run(prefix+"record", func(b *testing.B) {
			r := ringOf()
			for seq := uint64(1); seq <= maxDecisions; seq++ {
				r.record(decision{seq: seq, vc: seq<<1 | 1})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(maxDecisions + 1 + i)
				r.record(decision{seq: seq, vc: seq<<1 | 1})
			}
		})
		b.Run(prefix+"lookup-miss-full", func(b *testing.B) {
			r := ringOf()
			for k := uint64(0); k < maxDecisions; k++ {
				seq := 2 * (k%500 + 1)
				r.record(decision{seq: seq, vc: seq<<1 | 1})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, known := r.lookup(501); known {
					b.Fatal("an odd sequence number was found")
				}
			}
		})
	}
}

// packedRing drops the byte count record returns, to share an interface
// with the reference.
type packedRing struct{ *decisionLog }

func (r packedRing) record(d decision) { r.decisionLog.record(d) }

// TestResolverCommitsAbandonedPrepare is the termination protocol end to
// end: a participant prepared an update, the coordinator recorded "commit"
// but its Commit message never arrived; the resolver must learn the
// decision and apply the write.
func TestResolverCommitsAbandonedPrepare(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 20 * time.Millisecond,
		ResolveAfter:    50 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	// Coordinator decides commit but "crashes" before delivering it.
	h.item(0).RecordDecision(o, true)

	waitFor(t, 3*time.Second, func() bool {
		_, v := h.item(1).Value()
		return v == 1
	}, "resolver never committed the abandoned prepare")
	if h.item(1).lock.holderCount(time.Now()) != 0 {
		t.Error("lock still held after resolution")
	}
}

// TestResolverAbortsAbandonedPrepare mirrors the abort decision.
func TestResolverAbortsAbandonedPrepare(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 20 * time.Millisecond,
		ResolveAfter:    50 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	h.item(0).RecordDecision(o, false)

	waitFor(t, 3*time.Second, func() bool {
		return h.item(1).lock.holderCount(time.Now()) == 0
	}, "resolver never aborted the abandoned prepare")
	if _, v := h.item(1).Value(); v != 0 {
		t.Errorf("aborted write applied: version %d", v)
	}
}

// TestResolverWaitsWhileCoordinatorUnknown: no decision recorded — the
// participant must stay prepared (blocked), never guessing.
func TestResolverWaitsWhileCoordinatorUnknown(t *testing.T) {
	cfg := Config{
		LockLease:       100 * time.Millisecond,
		ResolveInterval: 15 * time.Millisecond,
		ResolveAfter:    30 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	time.Sleep(150 * time.Millisecond)
	if !h.item(1).lock.heldBy(time.Now(), o, lockExclusive) {
		t.Error("participant unblocked without a decision")
	}
	if _, v := h.item(1).Value(); v != 0 {
		t.Error("participant applied without a decision")
	}
}

// TestResolverThroughCrashedCoordinator: the coordinator node is down when
// the resolver first asks; once it restarts, the recorded decision flows.
func TestResolverThroughCrashedCoordinator(t *testing.T) {
	cfg := Config{
		LockLease:              200 * time.Millisecond,
		ResolveInterval:        20 * time.Millisecond,
		ResolveAfter:           40 * time.Millisecond,
		PropagationCallTimeout: 100 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	h.item(0).RecordDecision(o, true)
	h.net.Crash(0)
	time.Sleep(120 * time.Millisecond)
	if _, v := h.item(1).Value(); v != 0 {
		t.Error("resolved through a crashed coordinator")
	}
	h.net.Restart(0)
	waitFor(t, 3*time.Second, func() bool {
		_, v := h.item(1).Value()
		return v == 1
	}, "resolution never completed after coordinator restart")
}

// TestLocalCoordinatorSelfResolves: the coordinator's own replica staged an
// action and the decision is in its local log.
func TestLocalCoordinatorSelfResolves(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 20 * time.Millisecond,
		ResolveAfter:    40 * time.Millisecond,
	}
	h := newHarness(t, 1, nil, cfg)
	it := h.item(0)
	o := it.NextOp()
	h.call(t, 0, 0, LockRequest{Op: o, Mode: LockWrite})
	if ack := h.call(t, 0, 0, PrepareUpdate{Op: o, Update: Update{Data: []byte("x")}, NewVersion: 1}).(Ack); !ack.OK {
		t.Fatalf("prepare: %s", ack.Reason)
	}
	it.RecordDecision(o, true)
	waitFor(t, 3*time.Second, func() bool {
		_, v := it.Value()
		return v == 1
	}, "local self-resolution never happened")
}

// TestResolverOneWalkPerNode: staged actions on many items of one node are
// all on that node's single termination walk, every one is resolved from
// it, and the walk parks once nothing is staged — no item keeps a goroutine
// or a ticker of its own.
func TestResolverOneWalkPerNode(t *testing.T) {
	cfg := Config{
		LockLease:       200 * time.Millisecond,
		ResolveInterval: 10 * time.Millisecond,
		ResolveAfter:    30 * time.Millisecond,
	}
	h := newHarness(t, 2, nil, cfg)
	const items = 40
	names := make([]string, items)
	ops := make([]OpID, items)
	for i := range names {
		names[i] = fmt.Sprintf("k%d", i)
		for _, nd := range h.nodes {
			if _, err := nd.AddItem(names[i], h.members, nil); err != nil {
				t.Fatal(err)
			}
		}
		ops[i] = h.nodes[0].Item(names[i]).NextOp()
		for _, msg := range []any{
			LockRequest{Op: ops[i], Mode: LockWrite},
			PrepareUpdate{Op: ops[i], Update: Update{Data: []byte("t")}, NewVersion: 1},
		} {
			if _, err := h.net.Call(context.Background(), 0, 1, Envelope{Item: names[i], Msg: msg}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// walk reads the list between sweeps; during one the sweeper holds it.
	walk := func() (watched int, running bool) {
		nd := h.nodes[1]
		nd.resMu.Lock()
		defer nd.resMu.Unlock()
		return len(nd.resWatched), nd.resRunning
	}
	waitFor(t, 3*time.Second, func() bool {
		watched, running := walk()
		return watched == items && running
	}, "the walk does not hold every staged item")
	for i, name := range names {
		h.nodes[0].Item(name).RecordDecision(ops[i], i%2 == 0)
	}
	waitFor(t, 3*time.Second, func() bool {
		watched, running := walk()
		return watched == 0 && !running
	}, "the walk never drained and parked")
	for i, name := range names {
		it := h.nodes[1].Item(name)
		if _, v := it.Value(); v != uint64((i+1)%2) {
			t.Errorf("%s: version %d after decision commit=%v", name, v, i%2 == 0)
		}
		if it.lock.holderCount(time.Now()) != 0 {
			t.Errorf("%s: lock still held after resolution", name)
		}
	}
	// A parked walk restarts on the next staging.
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1})
	waitFor(t, 3*time.Second, func() bool {
		watched, running := walk()
		return watched == 1 && running
	}, "a new staging did not restart the walk")
	h.call(t, 0, 1, Abort{Op: o})
}

// TestResolverSkipsUnreachableCoordinator: a coordinator that failed to
// answer earlier in a sweep is not queried again in it, so a dead node costs
// the one walk one call timeout rather than one per item it left blocked.
func TestResolverSkipsUnreachableCoordinator(t *testing.T) {
	cfg := Config{LockLease: 200 * time.Millisecond, ResolveInterval: time.Hour, ResolveAfter: time.Nanosecond}
	h := newHarness(t, 2, nil, cfg)
	o := h.item(0).NextOp()
	h.call(t, 0, 1, LockRequest{Op: o, Mode: LockWrite})
	h.call(t, 0, 1, PrepareUpdate{Op: o, Update: Update{Data: []byte("t")}, NewVersion: 1})
	h.item(0).RecordDecision(o, true)
	time.Sleep(time.Millisecond)

	h.net.Crash(0)
	var unreachable nodeset.Set
	h.item(1).resolveStale(&unreachable)
	if !unreachable.Contains(0) {
		t.Fatal("a failed query did not mark the coordinator unreachable")
	}
	h.net.Restart(0)
	h.item(1).resolveStale(&unreachable)
	if _, v := h.item(1).Value(); v != 0 {
		t.Fatal("queried a coordinator already marked unreachable this sweep")
	}
	unreachable = nodeset.Set{}
	h.item(1).resolveStale(&unreachable)
	if _, v := h.item(1).Value(); v != 1 {
		t.Fatal("the next sweep did not resolve through the restarted coordinator")
	}
}
