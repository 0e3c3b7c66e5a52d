package main

import (
	"bytes"
	"fmt"
	"sort"

	"coterie/internal/onecopy"
)

// checkHistory verifies the same three conditions as onecopy.CheckHistory
// (distinct gap-free write versions, version order refining real-time
// order, reads returning the replayed value) in O(n log n). The reference
// checker compares every pair of events, which is fine for the few hundred
// events of a test and impossible for the few hundred thousand events one
// pinned item collects in a 15 s run. history_test.go holds the two to the
// same verdict on random valid and corrupted histories.
func checkHistory(initial []byte, events []onecopy.Event) error {
	var writes, reads []onecopy.Event
	maybes := 0
	for _, e := range events {
		switch e.Kind {
		case onecopy.KindWrite:
			writes = append(writes, e)
		case onecopy.KindRead:
			reads = append(reads, e)
		case onecopy.KindMaybeWrite:
			maybes++
		default:
			return fmt.Errorf("history: unknown event kind %d", e.Kind)
		}
	}

	// (1) Unique write versions; gaps only where uncertain writes could
	// have landed.
	sort.Slice(writes, func(i, j int) bool { return writes[i].Version < writes[j].Version })
	maxVersion := uint64(0)
	for i, w := range writes {
		if w.Version == 0 {
			return fmt.Errorf("history: committed write with version 0")
		}
		if i > 0 && writes[i-1].Version == w.Version {
			return fmt.Errorf("history: two committed writes share version %d", w.Version)
		}
		maxVersion = w.Version
	}
	for _, rd := range reads {
		if rd.Version > maxVersion {
			maxVersion = rd.Version
		}
	}
	if gaps := int(maxVersion) - len(writes); gaps < 0 || gaps > maybes {
		return fmt.Errorf("history: %d version gaps below v%d but only %d uncertain writes", gaps, maxVersion, maybes)
	}

	// (2) Real-time order. "An operation that ended before X started has a
	// version above X's" becomes a prefix maximum over operations sorted by
	// end stamp, looked up at X's start stamp.
	wEnded := newPrefixMax(writes)
	for _, w := range writes {
		if v, ok := wEnded.before(w.Start); ok && v > w.Version {
			return fmt.Errorf("history: write v%d finished before write v%d started but serializes after it", v, w.Version)
		}
	}
	wStarted := newSuffixMin(writes)
	rEnded := newPrefixMax(reads)
	for _, rd := range reads {
		if v, ok := wEnded.before(rd.Start); ok && v > rd.Version {
			return fmt.Errorf("history: read observed v%d but write v%d had already completed", rd.Version, v)
		}
		if v, ok := wStarted.after(rd.End); ok && v <= rd.Version {
			return fmt.Errorf("history: read observed v%d before write v%d started", rd.Version, v)
		}
		if v, ok := rEnded.before(rd.Start); ok && v > rd.Version {
			return fmt.Errorf("history: read observed v%d after an earlier read observed v%d", rd.Version, v)
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
		for at < rd.Version {
			cur = applyUpdate(cur, writes[at])
			at++
		}
		if !bytes.Equal(rd.Value, cur) {
			return fmt.Errorf("history: read at version %d returned %q, replay gives %q", rd.Version, rd.Value, cur)
		}
	}
	return nil
}

// applyUpdate mirrors replica's update semantics: in place, growing the
// value when the range runs past its end.
func applyUpdate(value []byte, w onecopy.Event) []byte {
	end := w.Update.Offset + len(w.Update.Data)
	if end > len(value) {
		value = append(value, make([]byte, end-len(value))...)
	}
	copy(value[w.Update.Offset:], w.Update.Data)
	return value
}

// prefixMax answers "the highest version among events that ended strictly
// before stamp t".
type prefixMax struct {
	ends []uint64
	max  []uint64
}

func newPrefixMax(events []onecopy.Event) prefixMax {
	byEnd := append([]onecopy.Event(nil), events...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
	p := prefixMax{ends: make([]uint64, len(byEnd)), max: make([]uint64, len(byEnd))}
	for i, e := range byEnd {
		p.ends[i] = e.End
		p.max[i] = e.Version
		if i > 0 && p.max[i-1] > e.Version {
			p.max[i] = p.max[i-1]
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

func newSuffixMin(events []onecopy.Event) suffixMin {
	byStart := append([]onecopy.Event(nil), events...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	s := suffixMin{starts: make([]uint64, len(byStart)), min: make([]uint64, len(byStart))}
	for i := len(byStart) - 1; i >= 0; i-- {
		s.starts[i] = byStart[i].Start
		s.min[i] = byStart[i].Version
		if i+1 < len(byStart) && s.min[i+1] < s.min[i] {
			s.min[i] = s.min[i+1]
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
