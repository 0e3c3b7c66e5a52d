package replica

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestUpdateApplyWithinBounds(t *testing.T) {
	v := []byte("hello world")
	got := Update{Offset: 6, Data: []byte("gophe")}.apply(v)
	if string(got) != "hello gophe" {
		t.Errorf("got %q", got)
	}
}

func TestUpdateApplyExtends(t *testing.T) {
	got := Update{Offset: 3, Data: []byte("xy")}.apply([]byte("a"))
	if !bytes.Equal(got, []byte{'a', 0, 0, 'x', 'y'}) {
		t.Errorf("got %v", got)
	}
	// Empty update at offset 0 on nil value.
	if got := (Update{}).apply(nil); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestUpdateValidate(t *testing.T) {
	if err := (Update{Offset: -1}).Validate(); err == nil {
		t.Error("negative offset accepted")
	}
	if err := (Update{Offset: 0, Data: []byte("x")}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestUpdateCloneIndependent(t *testing.T) {
	orig := Update{Offset: 1, Data: []byte("abc")}
	c := orig.clone()
	c.Data[0] = 'z'
	if orig.Data[0] != 'a' {
		t.Error("clone aliases original")
	}
}

func TestStoreApplyAndVersion(t *testing.T) {
	s := NewStore([]byte("base"), 0)
	if s.Version() != 0 || string(s.Value()) != "base" {
		t.Fatalf("initial state: v=%d value=%q", s.Version(), s.Value())
	}
	v := s.Apply(Update{Offset: 0, Data: []byte("B")})
	if v != 1 || s.Version() != 1 || string(s.Value()) != "Base" {
		t.Errorf("after apply: v=%d value=%q", s.Version(), s.Value())
	}
}

func TestStoreValueIsCopy(t *testing.T) {
	s := NewStore([]byte("abc"), 0)
	v := s.Value()
	v[0] = 'z'
	if string(s.Value()) != "abc" {
		t.Error("Value exposed internal buffer")
	}
}

func TestStoreUpdatesSince(t *testing.T) {
	s := NewStore(nil, 0)
	s.Apply(Update{Offset: 0, Data: []byte("a")})
	s.Apply(Update{Offset: 1, Data: []byte("b")})
	s.Apply(Update{Offset: 2, Data: []byte("c")})

	ups, ok := s.UpdatesSince(1)
	if !ok || len(ups) != 2 {
		t.Fatalf("UpdatesSince(1) = %v, %v", ups, ok)
	}
	if string(ups[0].Data) != "b" || string(ups[1].Data) != "c" {
		t.Errorf("wrong updates: %v", ups)
	}
	if ups2, ok := s.UpdatesSince(3); !ok || len(ups2) != 0 {
		t.Errorf("UpdatesSince(current) = %v, %v", ups2, ok)
	}
	if _, ok := s.UpdatesSince(4); ok {
		t.Error("UpdatesSince beyond version ok")
	}
}

func TestStoreLogTruncation(t *testing.T) {
	s := NewStore(make([]byte, 256), 2)
	for i := 0; i < 5; i++ {
		s.Apply(Update{Offset: i, Data: []byte{byte(i)}})
	}
	if s.LogLen() != 2 {
		t.Fatalf("LogLen = %d, want 2", s.LogLen())
	}
	// Versions 3..5 reachable, 0..2 not.
	if _, ok := s.UpdatesSince(3); !ok {
		t.Error("UpdatesSince(3) failed")
	}
	if _, ok := s.UpdatesSince(2); ok {
		t.Error("UpdatesSince(2) succeeded past truncation")
	}
}

// TestStoreLogCheaperThanSnapshot is the byte bound as a property, over
// random write sizes against values from 64 bytes to 4 KB: whatever run of
// updates the store still offers a lagging target costs no more to ship
// (data plus updateOverhead each) than the value itself, every version
// inside the retained suffix is served from the log, every version before
// it is refused so that its caller ships the snapshot, and the suffix is
// never cut shorter than the bound requires.
func TestStoreLogCheaperThanSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, size := range []int{64, 300, 1024, 4096} {
		s := NewStore(make([]byte, size), 1024)
		for i := 0; i < 2000; i++ {
			n := 1 + rng.Intn(size/4)
			s.Apply(Update{Offset: rng.Intn(size - n + 1), Data: make([]byte, n)})

			oldest := s.Version() - uint64(s.LogLen())
			ups, ok := s.UpdatesSince(oldest)
			if !ok || len(ups) != s.LogLen() {
				t.Fatalf("size %d write %d: version %d is inside the suffix but got %d updates, ok=%v", size, i, oldest, len(ups), ok)
			}
			cost := 0
			for _, u := range ups {
				cost += len(u.Data) + updateOverhead
			}
			if cost > s.Len() {
				t.Fatalf("size %d write %d: the log offers %d bytes of updates for a %d-byte value", size, i, cost, s.Len())
			}
			if oldest > 0 {
				if _, ok := s.UpdatesSince(oldest - 1); ok {
					t.Fatalf("size %d write %d: version %d is before the suffix and was served from the log", size, i, oldest-1)
				}
			}
			// An entry costs at most size/4+updateOverhead, so a log that
			// has been trimmed is within one entry of the bound.
			if oldest > 0 && s.LogLen() < 1024 && cost+size/4+updateOverhead <= s.Len() {
				t.Fatalf("size %d write %d: log holds %d of the %d bytes allowed, trimmed too far", size, i, cost, s.Len())
			}
		}
		if s.LogLen() == 0 {
			t.Errorf("size %d: nothing retained; small writes behind a larger value must stay logged", size)
		}
	}
}

func TestStoreInstallUpdates(t *testing.T) {
	src := NewStore(nil, 0)
	dst := NewStore(nil, 0)
	for i := 0; i < 3; i++ {
		src.Apply(Update{Offset: i, Data: []byte{byte('a' + i)}})
	}
	ups, _ := src.UpdatesSince(0)
	if err := dst.InstallUpdates(0, ups); err != nil {
		t.Fatal(err)
	}
	if dst.Version() != 3 || !bytes.Equal(dst.Value(), src.Value()) {
		t.Errorf("dst v=%d value=%q, src value=%q", dst.Version(), dst.Value(), src.Value())
	}
	if err := dst.InstallUpdates(1, ups); err == nil {
		t.Error("mismatched base version accepted")
	}
}

func TestStoreInstallSnapshot(t *testing.T) {
	s := NewStore([]byte("old"), 0)
	s.Apply(Update{Offset: 0, Data: []byte("x")})
	s.InstallSnapshot([]byte("snap"), 9)
	if s.Version() != 9 || string(s.Value()) != "snap" || s.LogLen() != 0 {
		t.Errorf("after snapshot: v=%d value=%q loglen=%d", s.Version(), s.Value(), s.LogLen())
	}
	// The log restarts at the snapshot version.
	s.Apply(Update{Offset: 0, Data: []byte("y")})
	ups, ok := s.UpdatesSince(9)
	if !ok || len(ups) != 1 {
		t.Errorf("UpdatesSince(9) = %v, %v", ups, ok)
	}
	if _, ok := s.UpdatesSince(8); ok {
		t.Error("UpdatesSince(8) reached past snapshot")
	}
}

func TestStoreInitialValueCopied(t *testing.T) {
	buf := []byte("abc")
	s := NewStore(buf, 0)
	buf[0] = 'z'
	if string(s.Value()) != "abc" {
		t.Error("store aliases initial buffer")
	}
}

func TestStoreNegativeMaxLogUnbounded(t *testing.T) {
	s := NewStore(nil, -1)
	for i := 0; i < 100; i++ {
		s.Apply(Update{Offset: 0, Data: []byte{1}})
	}
	if s.LogLen() != 100 {
		t.Errorf("LogLen = %d", s.LogLen())
	}
}
