package main

import (
	"math/rand"
	"testing"

	"coterie/internal/onecopy"
	"coterie/internal/replica"
)

// randomHistory builds a valid history of n operations by two interleaved
// "clients" on one item: operations overlap in time (an operation may
// start before the previous one ended) but take effect in issue order.
func randomHistory(rng *rand.Rand, n int, maybes bool) ([]byte, []onecopy.Event) {
	initial := make([]byte, 32)
	value := append([]byte(nil), initial...)
	var events []onecopy.Event
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
			u := replica.Update{Offset: rng.Intn(40), Data: []byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))}}
			value = applyUpdate(value, onecopy.Event{Update: u})
			events = append(events, onecopy.Event{Kind: onecopy.KindWrite, Start: start, End: clock, Version: version, Update: u})
		case r == 5 && maybes:
			// An uncertain write that did not land.
			events = append(events, onecopy.Event{Kind: onecopy.KindMaybeWrite, Start: start, End: clock, Update: replica.Update{Offset: 1, Data: []byte{'?'}}})
		default:
			events = append(events, onecopy.Event{Kind: onecopy.KindRead, Start: start, End: clock, Version: version, Value: append([]byte(nil), value...)})
		}
	}
	return initial, events
}

// corrupt damages one event of a history in one of the ways a broken
// protocol would.
func corrupt(rng *rand.Rand, events []onecopy.Event) []onecopy.Event {
	out := append([]onecopy.Event(nil), events...)
	i := rng.Intn(len(out))
	e := out[i]
	switch rng.Intn(5) {
	case 0: // a read returns bytes nobody wrote
		if e.Kind == onecopy.KindRead && len(e.Value) > 0 {
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
		if e.Kind == onecopy.KindWrite {
			out = append(out[:i], out[i+1:]...)
			return out
		}
	case 4: // the operation "finished" long before it did
		if e.End > 10 {
			e.Start, e.End = 1, 2
		}
	}
	out[i] = e
	return out
}

// TestCheckerMatchesReference holds the bench's O(n log n) checker to the
// verdict of onecopy.CheckHistory on valid histories and on corrupted
// ones, with and without uncertain writes.
func TestCheckerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rejected := 0
	for trial := 0; trial < 400; trial++ {
		initial, events := randomHistory(rng, 20+rng.Intn(60), trial%2 == 1)
		if err := checkHistory(initial, events); err != nil {
			t.Fatalf("trial %d: valid history rejected: %v", trial, err)
		}
		if err := onecopy.CheckHistory(initial, events); err != nil {
			t.Fatalf("trial %d: reference rejects the generator's history: %v", trial, err)
		}
		bad := corrupt(rng, events)
		got, want := checkHistory(initial, bad), onecopy.CheckHistory(initial, bad)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: bench checker says %v, reference says %v", trial, got, want)
		}
		if want != nil {
			rejected++
		}
	}
	if rejected < 100 {
		t.Errorf("only %d of 400 corruptions were violations; the test is too weak", rejected)
	}
}

func TestCheckerSpecificViolations(t *testing.T) {
	w := func(start, end, v uint64, off int, b byte) onecopy.Event {
		return onecopy.Event{Kind: onecopy.KindWrite, Start: start, End: end, Version: v, Update: replica.Update{Offset: off, Data: []byte{b}}}
	}
	r := func(start, end, v uint64, val string) onecopy.Event {
		return onecopy.Event{Kind: onecopy.KindRead, Start: start, End: end, Version: v, Value: []byte(val)}
	}
	initial := []byte("..")
	for name, c := range map[string]struct {
		events []onecopy.Event
		ok     bool
	}{
		"sequential":            {[]onecopy.Event{w(1, 2, 1, 0, 'a'), r(3, 4, 1, "a."), w(5, 6, 2, 1, 'b'), r(7, 8, 2, "ab")}, true},
		"concurrent either way": {[]onecopy.Event{w(1, 4, 2, 0, 'a'), w(2, 3, 1, 1, 'b'), r(5, 6, 2, "ab")}, true},
		"duplicate version":     {[]onecopy.Event{w(1, 2, 1, 0, 'a'), w(3, 4, 1, 1, 'b')}, false},
		"gap without a maybe":   {[]onecopy.Event{w(1, 2, 1, 0, 'a'), w(3, 4, 3, 1, 'b')}, false},
		"gap with a maybe":      {[]onecopy.Event{w(1, 2, 1, 0, 'a'), {Kind: onecopy.KindMaybeWrite, Start: 3, End: 4}, w(5, 6, 3, 1, 'b')}, true},
		"write order reversed":  {[]onecopy.Event{w(1, 2, 2, 0, 'a'), w(3, 4, 1, 1, 'b')}, false},
		"stale read":            {[]onecopy.Event{w(1, 2, 1, 0, 'a'), r(3, 4, 0, "..")}, false},
		"read from the future":  {[]onecopy.Event{r(1, 2, 1, "a."), w(3, 4, 1, 0, 'a')}, false},
		"reads go backwards":    {[]onecopy.Event{w(1, 9, 1, 0, 'a'), r(2, 3, 1, "a."), r(4, 5, 0, "..")}, false},
		"wrong bytes":           {[]onecopy.Event{w(1, 2, 1, 0, 'a'), r(3, 4, 1, "b.")}, false},
	} {
		err := checkHistory(initial, c.events)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkHistory = %v, want ok=%v", name, err, c.ok)
		}
		if ref := onecopy.CheckHistory(initial, c.events); (ref == nil) != c.ok {
			t.Errorf("%s: the reference disagrees with the test's expectation: %v", name, ref)
		}
	}
}
