package obs

import (
	"testing"
	"time"

	"coterie/internal/nodeset"
)

// The hot-path recording primitives must not allocate: counters and
// histograms sit on every message and every lock-table cycle, and the
// flight recorder wraps every coordinated operation. These gates keep the
// obs layer honest so the protocol's own AllocsPerRun gates (PR 2) keep
// passing with metrics enabled.

func TestCounterGaugeRecordDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	r := New()
	c := r.Counter("test_counter")
	g := r.Gauge("test_gauge")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-2)
	}); n != 0 {
		t.Fatalf("counter/gauge record allocates %.1f per run, want 0", n)
	}
	// Nop path must be free too.
	nc := Nop.Counter("x")
	if n := testing.AllocsPerRun(1000, func() { nc.Inc() }); n != 0 {
		t.Fatalf("nop counter allocates %.1f per run, want 0", n)
	}
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	h := New().Histogram("test_hist")
	v := uint64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		h.RecordDuration(time.Duration(v))
		v = v*2 + 1
	}); n != 0 {
		t.Fatalf("histogram record allocates %.1f per run, want 0", n)
	}
}

func TestCounterVecGetDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	vec := New().CounterVec("test_vec")
	vec.At(7) // grow once, outside the measured loop
	if n := testing.AllocsPerRun(1000, func() {
		vec.Get(7).Inc()
		vec.Get(3).Inc() // in-range but never grown: still no alloc
	}); n != 0 {
		t.Fatalf("counter-vec get allocates %.1f per run, want 0", n)
	}
}

func TestFlightRecorderCycleDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	f := NewFlightRecorder(64)
	quorum := nodeset.New(0, 1, 2)
	stale := nodeset.New(2)
	now := time.Now()
	cycle := func() {
		a := f.Begin(OpWrite, 0, 1, "item", now)
		a.Quorum(quorum, 3, 3)
		a.Phase(PhaseLock, now, now, 3, 0)
		a.StaleMark(stale, 2)
		a.End(OutcomeOK, 2, now)
	}
	// Warm the pool and one full lap of the ring: a slot makes its events
	// slice the first time a trace lands in it, and 64 such allocations in
	// 1 000 runs would vanish in AllocsPerRun's integer average.
	for i := 0; i < f.Cap(); i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("flight-recorder cycle allocates %.1f per run, want 0", n)
	}
}
