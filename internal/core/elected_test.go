package core

import (
	"errors"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/replica"
)

func newElectedCluster(t *testing.T, n int) *ElectedCluster {
	t.Helper()
	c, err := NewElectedCluster(n, "item", nil, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestElectedClusterBasicOps(t *testing.T) {
	c := newElectedCluster(t, 9)
	ctx := ctxT(t)
	if _, err := c.Coordinator(0).Write(ctx, replica.Update{Data: []byte("elected")}); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Coordinator(5).Read(ctx)
	if err != nil || string(v) != "elected" {
		t.Errorf("read %q, %v", v, err)
	}
}

func TestElectInitiatorPicksHighestUp(t *testing.T) {
	c := newElectedCluster(t, 5)
	ctx := ctxT(t)
	leader, err := c.ElectInitiator(ctx, 0)
	if err != nil || leader != 4 {
		t.Errorf("leader = %v, %v", leader, err)
	}
	c.Crash(4)
	leader, err = c.ElectInitiator(ctx, 0)
	if err != nil || leader != 3 {
		t.Errorf("leader after crash = %v, %v", leader, err)
	}
}

func TestCheckEpochElected(t *testing.T) {
	c := newElectedCluster(t, 9)
	ctx := ctxT(t)
	c.Crash(2)
	res, err := c.CheckEpochElected(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || res.Epoch.Contains(2) {
		t.Errorf("result = %+v", res)
	}
	// The initiator was the elected (highest up) node; verify a durable
	// election result is visible at the electors.
	if leader, known := c.Elector(0).Leader(); !known || leader != 8 {
		t.Errorf("node 0 sees leader %v (known=%v)", leader, known)
	}
}

func TestCheckEpochElectedAllDown(t *testing.T) {
	c := newElectedCluster(t, 4)
	for _, id := range c.Members.IDs() {
		c.Crash(id)
	}
	if _, err := c.CheckEpochElected(ctxT(t)); !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v", err)
	}
}

func TestElectedPeriodicChecker(t *testing.T) {
	c := newElectedCluster(t, 9)
	c.StartElectedEpochChecker(30 * time.Millisecond)
	defer c.StopEpochChecker()
	c.Crash(7)
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(0).State()
		return st.EpochNum >= 1 && !st.Epoch.Contains(7)
	}, "elected checker never adapted the epoch")
	// Crash the elected leader: the pulse must re-elect and keep adapting.
	c.Crash(8)
	waitUntil(t, 5*time.Second, func() bool {
		st := c.Replica(0).State()
		return !st.Epoch.Contains(8)
	}, "checker did not survive leader crash")
	if _, err := c.Coordinator(0).Write(ctxT(t), replica.Update{Data: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
}

func TestElectedClusterPartitionedElections(t *testing.T) {
	c := newElectedCluster(t, 9)
	ctx := ctxT(t)
	major := nodeset.New(0, 1, 2, 3, 4, 5, 6)
	if err := c.Net.Partition(major, nodeset.New(7, 8)); err != nil {
		t.Fatal(err)
	}
	// Elections in both partitions succeed, but only the majority's epoch
	// check can go through.
	if leader, err := c.ElectInitiator(ctx, 7); err != nil || leader != 8 {
		t.Errorf("minority leader = %v, %v", leader, err)
	}
	if leader, err := c.ElectInitiator(ctx, 0); err != nil || leader != 6 {
		t.Errorf("majority leader = %v, %v", leader, err)
	}
	if _, err := c.CheckEpochFrom(ctx, 8); !errors.Is(err, ErrUnavailable) {
		t.Errorf("minority check: %v", err)
	}
	if res, err := c.CheckEpochFrom(ctx, 6); err != nil || !res.Epoch.Equal(major) {
		t.Errorf("majority check: %+v, %v", res, err)
	}
}

func TestElectedClusterUnknownNode(t *testing.T) {
	c := newElectedCluster(t, 3)
	if _, err := c.ElectInitiator(ctxT(t), 99); err == nil {
		t.Error("unknown node accepted")
	}
	if c.Elector(99) != nil {
		t.Error("unknown elector non-nil")
	}
	if _, err := NewElectedCluster(0, "x", nil, Options{}); err == nil {
		t.Error("empty cluster accepted")
	}
}
