package nodeset

import "testing"

// TestHotMethodsDoNotAllocate is the allocation regression gate for the
// methods on the quorum-check hot path: compiled layouts lean on these
// running as pure word operations, so any future change that introduces a
// heap allocation here fails this test rather than silently regressing
// every quorum check.
func TestHotMethodsDoNotAllocate(t *testing.T) {
	s := Range(0, 70) // spans two words
	tt := New(3, 17, 64, 69)
	var sink bool
	var sinkInt int
	var sinkID ID

	checks := []struct {
		name string
		fn   func()
	}{
		{"Contains", func() { sink = s.Contains(64) }},
		{"Subset", func() { sink = tt.Subset(s) }},
		{"ContainsAll", func() { sink = s.ContainsAll(tt) }},
		{"Intersects", func() { sink = s.Intersects(tt) }},
		{"IntersectionLen", func() { sinkInt = s.IntersectionLen(tt) }},
		{"Len", func() { sinkInt = s.Len() }},
		{"Equal", func() { sink = s.Equal(tt) }},
		{"Nth", func() { sinkID, _ = s.Nth(65) }},
		{"OrderedNumber", func() { sinkInt, _ = s.OrderedNumber(64) }},
		{"Min", func() { sinkID, _ = s.Min() }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", c.name, allocs)
		}
	}

	// AppendIDs must not allocate when dst has capacity.
	buf := make([]ID, 0, 128)
	if allocs := testing.AllocsPerRun(100, func() { buf = s.AppendIDs(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendIDs into presized buffer allocates %.1f objects per call, want 0", allocs)
	}

	_, _, _ = sink, sinkInt, sinkID
}

// TestInlineSetOperationsDoNotAllocate is the gate for sets drawn from IDs
// 0…63, which is every epoch, quorum and good list this repository builds:
// the word lives in the Set itself, so building, copying, combining and
// decoding one never reaches the heap.
func TestInlineSetOperationsDoNotAllocate(t *testing.T) {
	a, b := Range(0, 9), New(1, 4, 7, 63)
	enc := a.Encode()
	buf := make([]byte, 0, 16)
	var sink Set
	checks := []struct {
		name string
		fn   func()
	}{
		{"New", func() { sink = New(0, 3, 63) }},
		{"Range", func() { sink = Range(2, 40) }},
		{"Add", func() { sink.Add(63) }},
		{"Remove", func() { sink.Remove(63) }},
		{"Clone", func() { sink = a.Clone() }},
		{"Union", func() { sink = a.Union(b) }},
		{"Intersect", func() { sink = a.Intersect(b) }},
		{"Diff", func() { sink = a.Diff(b) }},
		{"Decode", func() { sink, _, _ = Decode(enc) }},
		{"AppendEncode", func() { buf = a.AppendEncode(buf[:0]) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call on IDs below 64, want 0", c.name, allocs)
		}
	}
	_ = sink
}

func TestAppendIDsMatchesIDs(t *testing.T) {
	s := New(0, 5, 63, 64, 100, 4095)
	got := s.AppendIDs(nil)
	want := s.IDs()
	if len(got) != len(want) {
		t.Fatalf("AppendIDs returned %v, IDs returned %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendIDs returned %v, IDs returned %v", got, want)
		}
	}
	// Appending after existing elements preserves the prefix.
	pre := []ID{999}
	out := s.AppendIDs(pre)
	if out[0] != 999 || len(out) != 1+s.Len() {
		t.Fatalf("AppendIDs with prefix returned %v", out)
	}
}

func TestIntersectionLen(t *testing.T) {
	a := New(1, 2, 3, 64, 65, 4000)
	b := New(2, 64, 4000, 4001)
	if got := a.IntersectionLen(b); got != 3 {
		t.Errorf("IntersectionLen = %d, want 3", got)
	}
	if got := b.IntersectionLen(a); got != 3 {
		t.Errorf("IntersectionLen reversed = %d, want 3", got)
	}
	if got := a.IntersectionLen(Set{}); got != 0 {
		t.Errorf("IntersectionLen with empty = %d, want 0", got)
	}
	if got := a.IntersectionLen(a); got != a.Len() {
		t.Errorf("IntersectionLen with self = %d, want %d", got, a.Len())
	}
}

func TestContainsAll(t *testing.T) {
	s := New(1, 2, 3, 70)
	if !s.ContainsAll(New(1, 70)) {
		t.Error("ContainsAll rejected a subset")
	}
	if s.ContainsAll(New(1, 71)) {
		t.Error("ContainsAll accepted a non-subset")
	}
	if !s.ContainsAll(Set{}) {
		t.Error("ContainsAll rejected the empty set")
	}
}
