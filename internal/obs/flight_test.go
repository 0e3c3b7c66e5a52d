package obs

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"coterie/internal/nodeset"
)

// TestFlightRecorderBasic: a traced write's events come back in order with
// the recorded payloads, timed by the readings handed in and nothing else:
// an event between two readings carries the earlier one.
func TestFlightRecorderBasic(t *testing.T) {
	f := NewFlightRecorder(8)
	quorum := nodeset.New(0, 2, 4)
	stale := nodeset.New(2)

	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC) // hours off the clock: nothing may read it
	a := f.Begin(OpWrite, 1, 7, "item-x", t0)
	a.Quorum(quorum, 3, 3)
	a.Phase(PhaseLock, t0.Add(time.Microsecond), t0.Add(5*time.Microsecond), 3, 1)
	a.Redirect(1, 2)
	a.StaleMark(stale, 9)
	a.Heavy()
	a.End(OutcomeOK, 9, t0.Add(8*time.Microsecond))

	traces := f.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Kind != OpWrite || tr.Coordinator != 1 || tr.OpSeq != 7 || tr.Item != "item-x" {
		t.Fatalf("trace header %+v", tr)
	}
	if tr.Outcome != OutcomeOK || tr.Version != 9 || tr.Seq != 1 {
		t.Fatalf("trace outcome %+v", tr)
	}
	evs := tr.EventsSlice()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	if evs[0].Kind != EvQuorum || !evs[0].Nodes.Set().Equal(quorum) || evs[0].A != 3 || evs[0].B != 3 {
		t.Errorf("quorum event %+v", evs[0])
	}
	if evs[1].Kind != EvPhase || evs[1].Phase != PhaseLock || evs[1].N != 3 || evs[1].A != 1 {
		t.Errorf("phase event %+v", evs[1])
	}
	if evs[2].Kind != EvRedirect || evs[2].A != 1 || evs[2].B != 2 {
		t.Errorf("redirect event %+v", evs[2])
	}
	if evs[3].Kind != EvStaleMark || !evs[3].Nodes.Set().Equal(stale) || evs[3].A != 9 {
		t.Errorf("stale-mark event %+v", evs[3])
	}
	if evs[4].Kind != EvHeavy {
		t.Errorf("heavy event %+v", evs[4])
	}
	if evs[0].When != 0 || evs[1].Dur != 4*time.Microsecond || evs[1].When != 5*time.Microsecond ||
		evs[4].When != 5*time.Microsecond || tr.Elapsed != 8*time.Microsecond || !tr.Start.Equal(t0) {
		t.Errorf("timing: start %v elapsed %v, events %+v", tr.Start, tr.Elapsed, evs)
	}
}

// TestFlightRecorderEventCap: events beyond MaxTraceEvents are counted as
// dropped, not stored, and recording them does not corrupt the trace.
func TestFlightRecorderEventCap(t *testing.T) {
	f := NewFlightRecorder(2)
	a := f.Begin(OpRead, 0, 1, "x", time.Now())
	for i := 0; i < MaxTraceEvents+5; i++ {
		a.Heavy()
	}
	a.End(OutcomeOK, 0, time.Now())
	tr := f.Traces()[0]
	if tr.NumEvents != MaxTraceEvents || tr.Dropped != 5 {
		t.Fatalf("NumEvents=%d Dropped=%d, want %d/5", tr.NumEvents, tr.Dropped, MaxTraceEvents)
	}
}

// TestFlightRecorderWraparound drives many concurrent writers through a
// small ring (run under -race): the recorder must keep exactly the last
// Cap() traces, with strictly increasing contiguous sequence numbers, and
// every kept trace internally consistent.
func TestFlightRecorderWraparound(t *testing.T) {
	const (
		capacity = 16
		writers  = 8
		perW     = 200
	)
	f := NewFlightRecorder(capacity)
	set := nodeset.New(1, 2, 3)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshots while writers wrap the ring.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range f.Traces() {
				if tr.Seq == 0 || tr.NumEvents != 2 {
					t.Errorf("torn trace: seq=%d events=%d", tr.Seq, tr.NumEvents)
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				now := time.Now()
				a := f.Begin(OpWrite, nodeset.ID(w), uint64(i), "item", now)
				a.Quorum(set, 0, 0)
				a.Phase(PhaseLock, now, now, 3, 0)
				a.End(OutcomeOK, uint64(i), now)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()

	if got := f.Completed(); got != writers*perW {
		t.Fatalf("completed %d, want %d", got, writers*perW)
	}
	traces := f.Traces()
	if len(traces) != capacity {
		t.Fatalf("ring holds %d traces, want %d", len(traces), capacity)
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Seq != traces[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", traces[i-1].Seq, traces[i].Seq)
		}
	}
	if traces[len(traces)-1].Seq != uint64(writers*perW) {
		t.Fatalf("newest trace seq %d, want %d", traces[len(traces)-1].Seq, writers*perW)
	}
}

// TestFlightRecorderNil: the nil recorder and nil ActiveOp accept every
// call.
func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	now := time.Now()
	a := f.Begin(OpWrite, 0, 1, "x", now)
	if a != nil {
		t.Fatal("nil recorder returned a non-nil op")
	}
	a.Quorum(nodeset.New(1), 0, 0)
	a.Phase(PhaseLock, now, now, 1, 0)
	a.Redirect(0, 1)
	a.StaleMark(nodeset.New(1), 1)
	a.LockBusy(nodeset.New(1))
	a.Heavy()
	a.EpochInstall(nodeset.New(1), 1)
	a.End(OutcomeOK, 1, now)
	if f.Traces() != nil || f.Cap() != 0 || f.Completed() != 0 {
		t.Fatal("nil recorder reported state")
	}
}

// TestMaskTruncation: sets beyond the mask capacity are flagged.
func TestMaskTruncation(t *testing.T) {
	small := nodeset.New(0, 63, 255)
	m := MaskOf(small)
	if m.Truncated || !m.Set().Equal(small) {
		t.Fatalf("mask of small set: %+v", m)
	}
	big := nodeset.New(1, 300)
	m = MaskOf(big)
	if !m.Truncated {
		t.Fatal("set with ID 300 not flagged truncated")
	}
	if !m.Set().Equal(nodeset.New(1)) {
		t.Fatalf("truncated mask kept wrong members: %v", m.Set())
	}
}

// TestTraceCopyKeepsEveryField: a completed trace reaches its ring slot as
// a head and a slice of events, and comes back out of Traces() whole; a
// field added to the head and forgotten on either side would be lost.
func TestTraceCopyKeepsEveryField(t *testing.T) {
	var src Trace
	v := reflect.ValueOf(&src.TraceHead).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Struct: // time.Time
			f.Set(reflect.ValueOf(time.Unix(1, 2)))
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(2)
		default:
			f.SetUint(uint64(i + 1))
		}
	}
	src.Events[1].N, src.Events[2].N = 7, 9 // NumEvents is 2: the second is kept, the third is not
	var s slot
	s.put(&src)
	src.Events[2].N = 0
	var dst Trace
	if !s.get(&dst) || !reflect.DeepEqual(dst, src) {
		t.Errorf("copied %+v\nwant   %+v", dst, src)
	}
}

// TestFlightRecorderFootprint: an empty ring holds trace heads, not room
// for MaxTraceEvents events per slot (≈ 573 KB for 256 slots when every
// slot was a whole Trace).
func TestFlightRecorderFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const limit = 64 << 10
	var f *FlightRecorder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f = NewFlightRecorder(256)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewFlightRecorder(256) allocated %d B", got)
	if got > limit {
		t.Fatalf("NewFlightRecorder(256) allocated %d B, want at most %d", got, limit)
	}
	runtime.KeepAlive(f)
}

// record completes one trace of n Heavy events (n may pass the cap) on f.
func record(f *FlightRecorder, opSeq uint64, n int) {
	now := time.Now()
	a := f.Begin(OpWrite, 0, opSeq, "x", now)
	for i := 0; i < n; i++ {
		a.Batch(i, opSeq, uint64(i))
	}
	a.End(OutcomeOK, opSeq, now)
}

// TestFlightRecorderSlotGrowth: a one-slot ring that held a two-event trace
// gives back a larger trace whole — its 24 stored events in order and
// exactly the overflow counted as dropped — and then a smaller one without
// a trace of the larger left behind. The slot makes room for minSlotEvents
// at first and grows once, straight to the cap.
func TestFlightRecorderSlotGrowth(t *testing.T) {
	f := NewFlightRecorder(1)
	check := func(opSeq uint64, recorded, room int) {
		t.Helper()
		if got := cap(f.slots[0].events); got != room {
			t.Fatalf("op %d: the slot has room for %d events, want %d", opSeq, got, room)
		}
		trs := f.Traces()
		if len(trs) != 1 || trs[0].OpSeq != opSeq {
			t.Fatalf("ring holds %+v, want the trace of op %d", trs, opSeq)
		}
		tr := trs[0]
		stored := min(recorded, MaxTraceEvents)
		if int(tr.NumEvents) != stored || int(tr.Dropped) != recorded-stored {
			t.Fatalf("op %d: NumEvents=%d Dropped=%d, want %d/%d", opSeq, tr.NumEvents, tr.Dropped, stored, recorded-stored)
		}
		for i, e := range tr.Events {
			want := Event{}
			if i < stored {
				want = Event{Kind: EvBatch, N: int32(i), A: opSeq, B: uint64(i)}
			}
			if e != want {
				t.Fatalf("op %d: event %d is %+v, want %+v", opSeq, i, e, want)
			}
		}
	}
	record(f, 1, 2)
	check(1, 2, minSlotEvents)
	record(f, 2, minSlotEvents)
	check(2, minSlotEvents, minSlotEvents)
	record(f, 3, MaxTraceEvents+5)
	check(3, MaxTraceEvents+5, MaxTraceEvents)
	record(f, 4, 3)
	check(4, 3, MaxTraceEvents)
}

// TestFlightRecorderNewestWins: a slot keeps the trace with the larger
// sequence number whatever order the two are stored in.
func TestFlightRecorderNewestWins(t *testing.T) {
	var newer, older Trace
	newer.Seq, newer.OpSeq, newer.NumEvents = 5, 50, 1
	older.Seq, older.OpSeq, older.NumEvents = 3, 30, 2
	var s slot
	s.put(&newer)
	s.put(&older)
	var got Trace
	if !s.get(&got) || got.Seq != 5 || got.OpSeq != 50 || got.NumEvents != 1 {
		t.Fatalf("slot kept %+v, want the trace of seq 5", got.TraceHead)
	}
}

// TestFlightRecorderLifetimeAllocs: once its ActiveOp pool is warm, a ring
// allocates at most twice per slot however many laps it runs and whatever
// sizes its traces come in: a slot's events grow once, straight to the
// cap, and are reused from then on.
func TestFlightRecorderLifetimeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const capacity = 64
	f := NewFlightRecorder(capacity)
	record(f, 0, 0) // the pool's ActiveOp
	// Not AllocsPerRun: its warm-up call would run the laps being counted.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for lap := 0; lap < 10; lap++ {
		for i := 0; i < capacity; i++ {
			record(f, uint64(i), (lap*7+i*5)%(MaxTraceEvents+3))
		}
	}
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("ten laps of a %d-slot ring allocated %d objects", capacity, n)
	if n > 2*capacity {
		t.Fatalf("ten laps of a %d-slot ring allocated %d objects, want at most %d", capacity, n, 2*capacity)
	}
}
