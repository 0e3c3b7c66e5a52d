package obs

import "testing"

type testBundle struct{ hits *Counter }

type testKey struct{ n int }

// TestSharedBuildsOncePerRegistryAndKey: the first call for a key builds the
// bundle and every later one returns it; another key or another registry
// gets its own, and the Nop registry keeps one per key for the process.
func TestSharedBuildsOncePerRegistryAndKey(t *testing.T) {
	builds := 0
	build := func(r *Registry) testBundle {
		builds++
		return testBundle{hits: r.Counter("test_hits_total")}
	}
	r := New()
	a := Shared(r, testKey{1}, build)
	if b := Shared(r, testKey{1}, build); b != a || builds != 1 {
		t.Fatalf("second call for one key: same bundle %v, %d builds", b == a, builds)
	}
	if a.hits != r.Counter("test_hits_total") {
		t.Fatal("the bundle holds another counter than the registry's")
	}
	if Shared(r, testKey{2}, build) == a || Shared(New(), testKey{1}, build) == a {
		t.Fatal("another key or another registry got the same bundle")
	}
	nop := Shared(Nop, testKey{1}, build)
	if Shared(Nop, testKey{1}, build) != nop || nop.hits != nil {
		t.Fatal("the Nop registry's bundle is not one per key, or holds a live counter")
	}
}
