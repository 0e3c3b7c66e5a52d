package obs

import (
	"sync"
	"testing"
	"time"
)

func TestGaugeVecBasics(t *testing.T) {
	var v GaugeVec
	v.At(3).Set(30)
	v.At(0).Add(2)
	if got := v.At(3).Load(); got != 30 {
		t.Errorf("At(3) = %d", got)
	}
	if got := v.Get(0).Load(); got != 2 {
		t.Errorf("Get(0) = %d", got)
	}
	if v.Get(9) != nil {
		t.Error("Get past the end should be nil, not grow")
	}
	if v.Len() != 4 {
		t.Errorf("Len = %d, want 4", v.Len())
	}
	want := []int64{2, 0, 0, 30}
	got := v.Values()
	if len(got) != len(want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	// At returns the same cell every time; held pointers survive growth.
	g := v.At(1)
	v.At(10).Set(1)
	g.Set(5)
	if v.At(1) != g || v.Values()[1] != 5 {
		t.Error("cell identity lost across growth")
	}
}

func TestGaugeVecNilSafety(t *testing.T) {
	var v *GaugeVec
	if v.At(0) != nil || v.Get(0) != nil || v.Len() != 0 || v.Values() != nil {
		t.Error("nil GaugeVec must be inert")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Load() != 0 {
		t.Error("nil Gauge must be inert")
	}
	var vv GaugeVec
	if vv.At(-1) != nil {
		t.Error("negative index must be nil")
	}
}

func TestGaugeVecConcurrentGrowth(t *testing.T) {
	var v GaugeVec
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				v.At(i).Add(1)
			}
		}(w)
	}
	wg.Wait()
	for i, val := range v.Values() {
		if val != 8 {
			t.Fatalf("cell %d = %d, want 8", i, val)
		}
	}
}

func TestRegistryGaugeVecSnapshot(t *testing.T) {
	r := New()
	r.GaugeVec("load").At(2).Set(9)
	if r.GaugeVec("load") != r.GaugeVec("load") {
		t.Error("registry must intern gauge vecs by name")
	}
	s := r.Snapshot()
	found := false
	for _, gv := range s.GaugeVecs {
		if gv.Name == "load" {
			found = true
			if len(gv.Values) != 3 || gv.Values[2] != 9 {
				t.Errorf("snapshot values %v", gv.Values)
			}
		}
	}
	if !found {
		t.Error("gauge vec missing from snapshot")
	}
	var nilReg *Registry
	if nilReg.GaugeVec("x") != nil {
		t.Error("Nop registry must hand out nil gauge vecs")
	}
}

// TestFlightRecorderBatchEvent: a group-commit flush records one EvBatch
// event carrying the merged write count and the version range, so a trace
// of a batched write remains attributable per operation.
func TestFlightRecorderBatchEvent(t *testing.T) {
	f := NewFlightRecorder(4)
	now := time.Now()
	a := f.Begin(OpWrite, 0, 3, "item", now)
	a.Batch(5, 11, 15)
	a.End(OutcomeOK, 15, now)
	traces := f.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	evs := traces[0].EventsSlice()
	if len(evs) != 1 || evs[0].Kind != EvBatch {
		t.Fatalf("events %+v", evs)
	}
	if evs[0].N != 5 || evs[0].A != 11 || evs[0].B != 15 {
		t.Errorf("batch event %+v, want n=5 a=11 b=15", evs[0])
	}
	// Nil ActiveOp: a no-op, like every other recording call.
	var nilOp *ActiveOp
	nilOp.Batch(1, 1, 1)
}

// TestAdoptedGaugeIsTheOwnersCell: an owner whose gauge is its state (the
// transport's count of parked leg workers) moves it by compare-and-swap,
// and every registry that adopted it reads the same cell.
func TestAdoptedGaugeIsTheOwnersCell(t *testing.T) {
	var own Gauge
	a, b := New(), New()
	a.AdoptGauge("parked", &own)
	b.AdoptGauge("parked", &own)
	Nop.AdoptGauge("parked", &own) // no-op on the Nop registry
	if !own.CompareAndSwap(0, 3) || own.CompareAndSwap(0, 5) {
		t.Fatalf("CompareAndSwap: gauge = %d, want 3", own.Load())
	}
	if a.Gauge("parked") != &own || b.Gauge("parked").Load() != 3 {
		t.Error("adopting registries do not read the owner's cell")
	}
	if snap := a.Snapshot(); len(snap.Gauges) != 1 || snap.Gauges[0].Value != 3 {
		t.Errorf("snapshot gauges = %+v, want parked=3", snap.Gauges)
	}
	if (*Gauge)(nil).CompareAndSwap(0, 1) {
		t.Error("CompareAndSwap on a nil gauge reported a swap")
	}
}
