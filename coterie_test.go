package coterie

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"testing"
	"time"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	cluster, err := NewCluster(9, "item", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	version, err := cluster.Coordinator(0).Write(ctx, Update{Data: []byte("public")})
	if err != nil {
		t.Fatal(err)
	}
	value, rv, err := cluster.Coordinator(4).Read(ctx)
	if err != nil || string(value) != "public" || rv != version {
		t.Errorf("read %q@%d, %v", value, rv, err)
	}
}

func TestPublicAPIRules(t *testing.T) {
	for _, r := range []Rule{GridRule(), StrictGridRule(), MajorityRule(), HierarchicalRule(), ROWARule()} {
		V := NewSet(0, 1, 2, 3)
		if r.IsWriteQuorum(V, NewSet()) {
			t.Errorf("%s: empty set is a write quorum", r.Name())
		}
		if !r.IsWriteQuorum(V, V) {
			t.Errorf("%s: full set not a write quorum", r.Name())
		}
	}
}

func TestPublicAPITable1(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || rows[0].N != 9 {
		t.Fatalf("rows = %+v", rows)
	}
	if math.Abs(rows[0].StaticU*1e6-3268.59) > 0.01 {
		t.Errorf("N=9 static = %v", rows[0].StaticU)
	}
	if out := FormatTable1(rows); len(out) == 0 {
		t.Error("empty table")
	}
}

func TestPublicAPIAvailability(t *testing.T) {
	u, err := DynamicGridUnavailability(9, 1, 19)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.18e-6)/0.18e-6 > 0.05 {
		t.Errorf("dynamic N=9 = %g", u)
	}
	if s := StaticGridUnavailability(9, 0.95); math.Abs(s*1e6-3268.59) > 0.01 {
		t.Errorf("static N=9 = %g", s)
	}
}

func TestPublicAPIMeanOutageDuration(t *testing.T) {
	d, err := MeanOutageDuration(9, 1, 19)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 1.0/19 || d >= 0.2 {
		t.Errorf("outage duration %g", d)
	}
	if _, err := MeanOutageDuration(2, 1, 19); err == nil {
		t.Error("N=2 accepted")
	}
}

func TestPublicAPISimulate(t *testing.T) {
	res, err := Simulate(SimConfig{N: 6, Lambda: 1, Mu: 5, Horizon: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Events == 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestPublicAPIStaticCluster(t *testing.T) {
	cluster, err := NewStaticCluster(9, "item", nil, StaticOptions{CallTimeout: 500 * time.Millisecond}, ReplicaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	if _, err := cluster.Coordinator(0).Write(ctx, []byte("static")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []NodeID{0, 3, 6} {
		cluster.Crash(id)
	}
	if _, err := cluster.Coordinator(1).Write(ctx, []byte("x")); !errors.Is(err, ErrStaticUnavailable) {
		t.Errorf("err = %v", err)
	}
}

func TestPublicAPINewRules(t *testing.T) {
	V := NewSet(0, 1, 2, 3, 4)
	w := WheelRule()
	if !w.IsWriteQuorum(V, NewSet(0, 2)) {
		t.Error("wheel {hub,spoke} not a quorum")
	}
	g := GridRuleWithRatio(4)
	if q, ok := g.ReadQuorum(NewSet(0, 1, 2, 3), NewSet(0, 1, 2, 3), 0); !ok || q.Len() != 1 {
		t.Errorf("tall-grid read quorum = %v, %v", q, ok)
	}
}

func TestPublicAPIWireCodecCluster(t *testing.T) {
	cluster, err := NewCluster(4, "item", nil, Options{Transport: []TransportOption{WithWireCodec()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	if _, err := cluster.Coordinator(0).Write(ctx, Update{Data: []byte("over-the-wire")}); err != nil {
		t.Fatal(err)
	}
	v, _, err := cluster.Coordinator(3).Read(ctx)
	if err != nil || string(v) != "over-the-wire" {
		t.Errorf("read %q, %v", v, err)
	}
	// Direct codec access: a bare Update is not a protocol message and
	// must be rejected; a real message round-trips.
	if _, err := MarshalMessage(Update{Offset: 1, Data: []byte("x")}); err == nil {
		t.Error("bare Update accepted by the codec")
	}
}

func TestPublicAPIGroupsAndElection(t *testing.T) {
	g, err := NewGroup(4, []string{"a", "b"}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	if _, err := g.Coordinator("a", 0).Write(ctx, Update{Data: []byte("ga")}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CheckEpochs(ctx, 0); err != nil {
		t.Fatal(err)
	}

	ec, err := NewElectedCluster(3, "item", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	if leader, err := ec.ElectInitiator(ctx, 0); err != nil || leader != 2 {
		t.Errorf("leader = %v, %v", leader, err)
	}
}

func TestPublicAPIAmnesia(t *testing.T) {
	cluster, err := NewCluster(9, "item", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	if _, err := cluster.Coordinator(0).Write(ctx, Update{Data: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	cluster.CrashWithAmnesia(4)
	cluster.Restart(4)
	if !cluster.Replica(4).Recovering() {
		t.Error("not recovering")
	}
	if _, err := cluster.CheckEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	if cluster.Replica(4).Recovering() {
		t.Error("still recovering after epoch change")
	}
}

func Example() {
	cluster, err := NewCluster(9, "greeting", nil, Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	if _, err := cluster.Coordinator(0).Write(ctx, Update{Data: []byte("hello")}); err != nil {
		log.Fatal(err)
	}
	value, version, err := cluster.Coordinator(7).Read(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s@%d\n", value, version)
	// Output: hello@1
}
