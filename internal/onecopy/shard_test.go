package onecopy

import (
	"fmt"
	"sync"
	"testing"

	"coterie/internal/replica"
)

// TestRecorderConcurrentMerge drives many goroutines through the sharded
// recorder and checks the merged history is complete, end-stamp ordered,
// and stable across repeated Events() calls (the deterministic merge the
// checker depends on).
func TestRecorderConcurrentMerge(t *testing.T) {
	r := NewRecorder(nil)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				start := r.Begin()
				switch i % 3 {
				case 0:
					r.EndWrite(start, uint64(w*perWorker+i+1), replica.Update{Data: []byte{byte(w)}})
				case 1:
					r.EndRead(start, uint64(i), []byte{byte(i)})
				default:
					r.EndMaybeWrite(start, replica.Update{Data: []byte{byte(i)}})
				}
			}
		}(w)
	}
	wg.Wait()

	events := r.Events()
	if len(events) != workers*perWorker {
		t.Fatalf("merged %d events, want %d", len(events), workers*perWorker)
	}
	seen := make(map[uint64]bool, len(events))
	for i, e := range events {
		if e.End <= e.Start {
			t.Fatalf("event %d: end %d not after start %d", i, e.End, e.Start)
		}
		if seen[e.End] {
			t.Fatalf("duplicate end stamp %d", e.End)
		}
		seen[e.End] = true
		if i > 0 && events[i-1].End >= e.End {
			t.Fatalf("merge not ordered: end %d before %d", events[i-1].End, e.End)
		}
	}
	again := r.Events()
	if fmt.Sprint(events) != fmt.Sprint(again) {
		t.Fatal("repeated Events() calls disagree")
	}
}

// TestRecorderSequentialUnchanged pins the single-threaded behavior: a
// serial history records and checks exactly as before sharding.
func TestRecorderSequentialUnchanged(t *testing.T) {
	r := NewRecorder([]byte{0})
	for v := uint64(1); v <= recorderShards+3; v++ {
		start := r.Begin()
		r.EndWrite(start, v, replica.Update{Offset: 0, Data: []byte{byte(v)}})
		start = r.Begin()
		r.EndRead(start, v, []byte{byte(v)})
	}
	events := r.Events()
	if len(events) != 2*(recorderShards+3) {
		t.Fatalf("got %d events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].End >= events[i].End {
			t.Fatal("serial history reordered by merge")
		}
	}
	if err := r.Check(); err != nil {
		t.Fatalf("serial history rejected: %v", err)
	}
}

// TestEventsShareEqualReadValues: once merged, reads that returned equal
// bytes at one version hold one copy of them, and a read that returned other
// bytes at that version keeps its own, so the checker still sees it.
func TestEventsShareEqualReadValues(t *testing.T) {
	r := NewRecorder([]byte{0})
	start := r.Begin()
	r.EndWrite(start, 1, replica.Update{Data: []byte{7}})
	for i := 0; i < 2*recorderShards; i++ {
		start = r.Begin()
		r.EndRead(start, 1, []byte{7})
	}
	start = r.Begin()
	r.EndRead(start, 1, []byte{8})
	var shared *byte
	for _, e := range r.Events() {
		switch {
		case e.Kind != KindRead:
		case e.Value[0] == 8:
			if &e.Value[0] == shared {
				t.Fatal("a read with other bytes was given the shared copy")
			}
		case shared == nil:
			shared = &e.Value[0]
		case &e.Value[0] != shared:
			t.Fatal("two reads of equal bytes at one version hold two copies")
		}
	}
	if err := r.Check(); err == nil {
		t.Fatal("the read of bytes nobody wrote went unnoticed")
	}
}
