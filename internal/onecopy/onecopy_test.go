package onecopy

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coterie/internal/replica"
)

func TestEmptyHistoryValid(t *testing.T) {
	r := NewRecorder([]byte("x"))
	if err := r.Check(); err != nil {
		t.Error(err)
	}
}

func TestSequentialHistoryValid(t *testing.T) {
	r := NewRecorder(nil)
	s := r.Begin()
	r.EndWrite(s, 1, replica.Update{Offset: 0, Data: []byte("a")})
	s = r.Begin()
	r.EndRead(s, 1, []byte("a"))
	s = r.Begin()
	r.EndWrite(s, 2, replica.Update{Offset: 1, Data: []byte("b")})
	s = r.Begin()
	r.EndRead(s, 2, []byte("ab"))
	if err := r.Check(); err != nil {
		t.Error(err)
	}
}

func TestDuplicateVersionDetected(t *testing.T) {
	events := []Event{
		{Kind: KindWrite, Start: 1, End: 2, Version: 1, Update: replica.Update{Data: []byte("a")}},
		{Kind: KindWrite, Start: 3, End: 4, Version: 1, Update: replica.Update{Data: []byte("b")}},
	}
	if err := CheckHistory(nil, events); err == nil || !strings.Contains(err.Error(), "share version") {
		t.Errorf("err = %v", err)
	}
}

func TestVersionGapDetected(t *testing.T) {
	events := []Event{
		{Kind: KindWrite, Start: 1, End: 2, Version: 2, Update: replica.Update{Data: []byte("a")}},
	}
	if err := CheckHistory(nil, events); err == nil {
		t.Error("gap accepted")
	}
}

func TestWriteRealTimeViolationDetected(t *testing.T) {
	// Write v2 completed before write v1 started.
	events := []Event{
		{Kind: KindWrite, Start: 5, End: 6, Version: 1, Update: replica.Update{Data: []byte("a")}},
		{Kind: KindWrite, Start: 1, End: 2, Version: 2, Update: replica.Update{Data: []byte("b")}},
	}
	if err := CheckHistory(nil, events); err == nil || !strings.Contains(err.Error(), "serializes after") {
		t.Errorf("err = %v", err)
	}
}

func TestStaleReadDetected(t *testing.T) {
	// The read starts after write v1 completed but observes v0.
	events := []Event{
		{Kind: KindWrite, Start: 1, End: 2, Version: 1, Update: replica.Update{Data: []byte("a")}},
		{Kind: KindRead, Start: 3, End: 4, Version: 0, Value: nil},
	}
	if err := CheckHistory(nil, events); err == nil || !strings.Contains(err.Error(), "already completed") {
		t.Errorf("err = %v", err)
	}
}

func TestFutureReadDetected(t *testing.T) {
	// The read finished before write v1 started yet observed v1.
	events := []Event{
		{Kind: KindRead, Start: 1, End: 2, Version: 1, Value: []byte("a")},
		{Kind: KindWrite, Start: 3, End: 4, Version: 1, Update: replica.Update{Data: []byte("a")}},
	}
	if err := CheckHistory(nil, events); err == nil || !strings.Contains(err.Error(), "before write") {
		t.Errorf("err = %v", err)
	}
}

func TestWrongValueDetected(t *testing.T) {
	events := []Event{
		{Kind: KindWrite, Start: 1, End: 2, Version: 1, Update: replica.Update{Data: []byte("a")}},
		{Kind: KindRead, Start: 3, End: 4, Version: 1, Value: []byte("z")},
	}
	if err := CheckHistory(nil, events); err == nil || !strings.Contains(err.Error(), "replay gives") {
		t.Errorf("err = %v", err)
	}
}

func TestReadVersionBeyondWritesDetected(t *testing.T) {
	events := []Event{
		{Kind: KindRead, Start: 1, End: 2, Version: 3, Value: nil},
	}
	if err := CheckHistory(nil, events); err == nil {
		t.Error("phantom version accepted")
	}
}

func TestNonMonotonicReadsDetected(t *testing.T) {
	events := []Event{
		{Kind: KindWrite, Start: 1, End: 2, Version: 1, Update: replica.Update{Data: []byte("a")}},
		{Kind: KindRead, Start: 3, End: 4, Version: 1, Value: []byte("a")},
		// hmm: second read starts after the first ended but sees v0, while
		// no write constrains it directly (write ended before both).
		{Kind: KindRead, Start: 5, End: 6, Version: 0, Value: nil},
	}
	if err := CheckHistory(nil, events); err == nil {
		t.Error("non-monotonic reads accepted")
	}
}

func TestConcurrentOpsAnyOrderValid(t *testing.T) {
	// Two overlapping writes may serialize either way.
	events := []Event{
		{Kind: KindWrite, Start: 1, End: 10, Version: 2, Update: replica.Update{Offset: 0, Data: []byte("x")}},
		{Kind: KindWrite, Start: 2, End: 9, Version: 1, Update: replica.Update{Offset: 1, Data: []byte("y")}},
		{Kind: KindRead, Start: 11, End: 12, Version: 2, Value: []byte("xy")},
	}
	if err := CheckHistory(nil, events); err != nil {
		t.Error(err)
	}
}

func TestReadOfInitialValue(t *testing.T) {
	events := []Event{
		{Kind: KindRead, Start: 1, End: 2, Version: 0, Value: []byte("init")},
	}
	if err := CheckHistory([]byte("init"), events); err != nil {
		t.Error(err)
	}
	bad := []Event{{Kind: KindRead, Start: 1, End: 2, Version: 0, Value: []byte("other")}}
	if err := CheckHistory([]byte("init"), bad); err == nil {
		t.Error("wrong initial value accepted")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	if err := CheckHistory(nil, []Event{{Kind: Kind(9)}}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRecorderCopiesValues(t *testing.T) {
	r := NewRecorder(nil)
	s := r.Begin()
	buf := []byte("a")
	r.EndWrite(s, 1, replica.Update{Data: buf})
	s = r.Begin()
	val := []byte("a")
	r.EndRead(s, 1, val)
	val[0] = 'z' // mutating the caller's buffer must not corrupt history
	if err := r.Check(); err != nil {
		t.Error(err)
	}
}

func TestMaybeWriteExcusesOneGap(t *testing.T) {
	// A committed write at v2 with v1 missing: invalid alone, valid with
	// one uncertain write.
	gap := []Event{
		{Kind: KindWrite, Start: 3, End: 4, Version: 2, Update: replica.Update{Data: []byte("b")}},
	}
	if err := CheckHistory(nil, gap); err == nil {
		t.Error("gap accepted without maybe-write")
	}
	withMaybe := append([]Event{
		{Kind: KindMaybeWrite, Start: 1, End: 2, Update: replica.Update{Data: []byte("a")}},
	}, gap...)
	if err := CheckHistory(nil, withMaybe); err != nil {
		t.Errorf("gap with maybe-write rejected: %v", err)
	}
	// Two gaps, one maybe: still invalid.
	twoGaps := append([]Event{
		{Kind: KindMaybeWrite, Start: 1, End: 2, Update: replica.Update{Data: []byte("a")}},
	}, Event{Kind: KindWrite, Start: 5, End: 6, Version: 3, Update: replica.Update{Data: []byte("c")}})
	if err := CheckHistory(nil, twoGaps); err == nil {
		t.Error("two gaps excused by one maybe-write")
	}
}

func TestMaybeWriteSkipsValueCheckPastGap(t *testing.T) {
	// Read at v2 where v1 is a gap: the value cannot be validated, so any
	// bytes pass; but the version bound still applies.
	events := []Event{
		{Kind: KindMaybeWrite, Start: 1, End: 2},
		{Kind: KindWrite, Start: 3, End: 4, Version: 2, Update: replica.Update{Data: []byte("b")}},
		{Kind: KindRead, Start: 5, End: 6, Version: 2, Value: []byte("anything")},
	}
	if err := CheckHistory(nil, events); err != nil {
		t.Errorf("unverifiable read rejected: %v", err)
	}
	// A read below the gap still has its value checked.
	events = append(events, Event{Kind: KindRead, Start: 7, End: 8, Version: 0, Value: []byte("wrong")})
	if err := CheckHistory(nil, events); err == nil {
		t.Error("stale read past completed write accepted")
	}
}

func TestMaybeWriteReadBeyondAllVersions(t *testing.T) {
	// A read claiming v1 with no definite writes: valid only if a maybe
	// write exists to account for it.
	read := []Event{{Kind: KindRead, Start: 3, End: 4, Version: 1, Value: []byte("x")}}
	if err := CheckHistory(nil, read); err == nil {
		t.Error("phantom version accepted")
	}
	withMaybe := append([]Event{{Kind: KindMaybeWrite, Start: 1, End: 2}}, read...)
	if err := CheckHistory(nil, withMaybe); err != nil {
		t.Errorf("read of uncertain write rejected: %v", err)
	}
}

func TestWriteVersionZeroRejected(t *testing.T) {
	events := []Event{{Kind: KindWrite, Start: 1, End: 2, Version: 0}}
	if err := CheckHistory(nil, events); err == nil {
		t.Error("version-0 write accepted")
	}
}

func TestRecorderMaybeWrite(t *testing.T) {
	r := NewRecorder(nil)
	s := r.Begin()
	r.EndMaybeWrite(s, replica.Update{Data: []byte("?")})
	s = r.Begin()
	r.EndWrite(s, 2, replica.Update{Offset: 1, Data: []byte("b")})
	if err := r.Check(); err != nil {
		t.Errorf("recorder maybe-write history rejected: %v", err)
	}
}

func TestUpdateExtensionReplay(t *testing.T) {
	// Updates beyond the current length zero-fill, matching the store.
	events := []Event{
		{Kind: KindWrite, Start: 1, End: 2, Version: 1, Update: replica.Update{Offset: 3, Data: []byte("z")}},
		{Kind: KindRead, Start: 3, End: 4, Version: 1, Value: []byte{'a', 0, 0, 'z'}},
	}
	if err := CheckHistory([]byte("a"), events); err != nil {
		t.Error(err)
	}
}

// checkPairwise is the three conditions read literally — every pair of
// events compared, every version's value replayed — and the oracle
// CheckHistory is held to. It is quadratic in the history, which is why it
// is not the checker.
func checkPairwise(initial []byte, events []Event) error {
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
			return fmt.Errorf("unknown event kind %d", e.Kind)
		}
	}
	maxVersion := uint64(0)
	byVersion := make(map[uint64]Event, len(writes))
	for _, w := range writes {
		if _, dup := byVersion[w.Version]; dup || w.Version == 0 {
			return fmt.Errorf("write version %d zero or shared", w.Version)
		}
		byVersion[w.Version] = w
		maxVersion = max(maxVersion, w.Version)
	}
	for _, rd := range reads {
		maxVersion = max(maxVersion, rd.Version)
	}
	if gaps := int(maxVersion) - len(writes); gaps < 0 || gaps > maybes {
		return fmt.Errorf("%d gaps, %d uncertain writes", gaps, maybes)
	}
	for _, a := range writes {
		for _, b := range writes {
			if a.End < b.Start && a.Version > b.Version {
				return fmt.Errorf("write v%d serializes after the later v%d", a.Version, b.Version)
			}
		}
	}
	values := [][]byte{append([]byte(nil), initial...)}
	for v := uint64(1); v <= maxVersion; v++ {
		w, ok := byVersion[v]
		if !ok {
			break
		}
		values = append(values, applyUpdate(append([]byte(nil), values[v-1]...), w.Update))
	}
	for _, rd := range reads {
		if rd.Version < uint64(len(values)) && !bytes.Equal(rd.Value, values[rd.Version]) {
			return fmt.Errorf("read at v%d returned the wrong value", rd.Version)
		}
		for _, w := range writes {
			if w.End < rd.Start && rd.Version < w.Version || rd.End < w.Start && rd.Version >= w.Version {
				return fmt.Errorf("read at v%d against write v%d", rd.Version, w.Version)
			}
		}
		for _, rd2 := range reads {
			if rd.End < rd2.Start && rd.Version > rd2.Version {
				return fmt.Errorf("reads at v%d then v%d", rd.Version, rd2.Version)
			}
		}
	}
	return nil
}

// randomHistory builds a valid history of n operations by two interleaved
// clients on one item: operations overlap in time (one may start before the
// previous one ended) but take effect in issue order.
func randomHistory(rng *rand.Rand, n int, maybes bool) ([]byte, []Event) {
	initial := make([]byte, 8)
	value := append([]byte(nil), initial...)
	var events []Event
	clock, version := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		clock++
		start := clock
		if rng.Intn(3) == 0 && start > 2 {
			start -= 2 // overlaps its predecessor
		}
		clock++
		switch r := rng.Intn(10); {
		case r < 5:
			version++
			u := replica.Update{Offset: rng.Intn(10), Data: []byte{byte('a' + rng.Intn(3))}}
			value = applyUpdate(value, u)
			events = append(events, Event{Kind: KindWrite, Start: start, End: clock, Version: version, Update: u})
		case r == 5 && maybes:
			// An uncertain write that did not land.
			events = append(events, Event{Kind: KindMaybeWrite, Start: start, End: clock, Update: replica.Update{Data: []byte{'?'}}})
		default:
			events = append(events, Event{Kind: KindRead, Start: start, End: clock, Version: version, Value: append([]byte(nil), value...)})
		}
	}
	return initial, events
}

// corrupt damages one event of a history the way a broken protocol would.
func corrupt(rng *rand.Rand, events []Event) []Event {
	out := append([]Event(nil), events...)
	i := rng.Intn(len(out))
	e := out[i]
	switch rng.Intn(6) {
	case 0: // a read returns bytes nobody wrote
		if e.Kind == KindRead && len(e.Value) > 0 {
			e.Value = append([]byte(nil), e.Value...)
			e.Value[rng.Intn(len(e.Value))] ^= 0x55
		}
	case 1: // a stale read, or a write serialized in the past
		if e.Version > 1 {
			e.Version -= 1 + uint64(rng.Intn(int(e.Version-1)))
		}
	case 2: // a version from the future
		e.Version += 1 + uint64(rng.Intn(3))
	case 3: // an acknowledged write vanishes
		if e.Kind == KindWrite {
			return append(out[:i], out[i+1:]...)
		}
	case 4: // the operation "finished" long before it did
		if e.End > 4 {
			e.Start, e.End = 1, 2
		}
	case 5: // an uncertain write turns out to have landed nowhere it could
		e.Kind = KindMaybeWrite
	}
	out[i] = e
	return out
}

// TestCheckerMatchesPairwise holds CheckHistory to the pairwise oracle's
// verdict on 12 000 small random histories: valid ones, with and without
// uncertain writes, and each of them corrupted once.
func TestCheckerMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rejected := 0
	for trial := 0; trial < 6000; trial++ {
		initial, events := randomHistory(rng, 1+rng.Intn(12), trial%2 == 1)
		if err := CheckHistory(initial, events); err != nil {
			t.Fatalf("trial %d: valid history rejected: %v\n%+v", trial, err, events)
		}
		if err := checkPairwise(initial, events); err != nil {
			t.Fatalf("trial %d: the oracle rejects the generator's history: %v", trial, err)
		}
		bad := corrupt(rng, events)
		got, want := CheckHistory(initial, bad), checkPairwise(initial, bad)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: checker says %v, oracle says %v\n%+v", trial, got, want, bad)
		}
		if want != nil {
			rejected++
		}
	}
	if rejected < 2000 {
		t.Errorf("only %d of 6000 corruptions were violations; the test is too weak", rejected)
	}
}
