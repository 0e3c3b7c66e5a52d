package main

import (
	"reflect"
	"testing"

	"coterie/internal/nodeset"
	"coterie/internal/workload"
)

// TestTCPKeysPartitionedPerClient: client c only ever draws keys ≡ c
// (mod clients), inside the key space, hottest key first.
func TestTCPKeysPartitionedPerClient(t *testing.T) {
	spec := tcpSpec{daemons: 4, keys: 2048, keySize: 1024, maxWrite: 64, readFrac: 0.5, clients: 2}
	clients, err := (&tcpCluster{spec: spec}).newClients(7)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range clients {
		seen := map[int]int{}
		for i := 0; i < 20000; i++ {
			key := c.(*tcpClient).key()
			if key%spec.clients != id || key < 0 || key >= spec.keys {
				t.Fatalf("client %d drew key %d", id, key)
			}
			seen[key]++
		}
		if len(seen) < 200 {
			t.Errorf("client %d touched only %d distinct keys", id, len(seen))
		}
		for key, n := range seen {
			if n > seen[id] {
				t.Errorf("client %d: key %d drawn %d times, more than its hottest key %d (%d)", id, key, n, id, seen[id])
			}
		}
	}
}

func TestSimItemChoice(t *testing.T) {
	pinned := grid9
	pinned.pinned = true
	clients, err := (&simCluster{spec: pinned, members: nodeset.Range(0, 9)}).newClients(3)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range clients {
		for i := 0; i < 100; i++ {
			if got := c.(*simClient).item(); got != id {
				t.Fatalf("pinned client %d drew item %d", id, got)
			}
		}
	}
	shared, err := (&simCluster{spec: grid9, members: nodeset.Range(0, 9)}).newClients(3)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range shared {
		seen := map[int]bool{}
		for i := 0; i < 2000; i++ {
			seen[c.(*simClient).item()] = true
		}
		if len(seen) != grid9.items {
			t.Errorf("zipf client %d reached %d of %d items", id, len(seen), grid9.items)
		}
	}
}

// TestFaultScheduleDeterministic: faults sit at fixed operation counts and
// walk the victims in order, whatever the clock does.
func TestFaultScheduleDeterministic(t *testing.T) {
	type at struct {
		op int
		ev faultEvent
	}
	trace := func() []at {
		s := faultSchedule{every: 200, nodes: 9}
		var out []at
		for op := 0; op < 200*2*10+1; op++ {
			if ev := s.next(); ev.action != faultNone {
				out = append(out, at{op, ev})
			}
		}
		return out
	}
	a, b := trace(), trace()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules disagree")
	}
	if len(a) != 20 {
		t.Fatalf("%d faults in 4000 operations, want 20", len(a))
	}
	for i, f := range a {
		wantAction, wantVictim := faultCrash, nodeset.ID((i/2)%9)
		if i%2 == 1 {
			wantAction = faultRestart
		}
		if f.op != 200*(i+1) || f.ev.action != wantAction || f.ev.victim != wantVictim {
			t.Errorf("fault %d: op %d %+v, want op %d action %d victim %d", i, f.op, f.ev, 200*(i+1), wantAction, wantVictim)
		}
	}
	var off faultSchedule
	for op := 0; op < 1000; op++ {
		if ev := off.next(); ev.action != faultNone {
			t.Fatalf("a schedule with every=0 injected %+v", ev)
		}
	}
}

// TestOperationStreamFollowsSeed: the same seed gives every client the
// same operations, another seed gives other operations, and two clients of
// one run get different streams.
func TestOperationStreamFollowsSeed(t *testing.T) {
	stream := func(seed int64, client int) []workload.Op {
		clients, err := (&simCluster{spec: grid9, members: nodeset.Range(0, 9)}).newClients(seed)
		if err != nil {
			t.Fatal(err)
		}
		c := clients[client].(*simClient)
		ops := make([]workload.Op, 200)
		for i := range ops {
			ops[i] = c.gen.Next()
			ops[i].Coordinator += nodeset.ID(c.item()) << 8 // fold the item choice in
		}
		return ops
	}
	if !reflect.DeepEqual(stream(5, 0), stream(5, 0)) {
		t.Error("same seed, different operations")
	}
	if reflect.DeepEqual(stream(5, 0), stream(6, 0)) {
		t.Error("different seeds, same operations")
	}
	if reflect.DeepEqual(stream(5, 0), stream(5, 1)) {
		t.Error("two clients of one run share a stream")
	}
}

func TestBackoffBounds(t *testing.T) {
	clients, _ := (&simCluster{spec: grid9, members: nodeset.Range(0, 9)}).newClients(1)
	rng := clients[0].(*simClient).rng
	for attempt := 0; attempt < 40; attempt++ {
		d := backoff(rng, attempt)
		if d < simBackoffBase/2 || d >= simBackoffMax*3/2 {
			t.Errorf("backoff(attempt %d) = %v", attempt, d)
		}
	}
}
