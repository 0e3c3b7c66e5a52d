package main

import (
	"bytes"
	"strings"
	"testing"

	"coterie/internal/capi"
	"coterie/internal/obs"
	"coterie/internal/obs/expose"
)

// nodeSnapshot renders a registry the way a daemon's admin endpoint would
// and parses it back through the scraper — the exposition half of the
// round trip, minus the socket.
func nodeSnapshot(t *testing.T, addr string, r *obs.Registry) capi.NodeSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := expose.WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	ns, err := capi.ParseSnapshot(addr, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return *ns
}

// TestSummaryRendersMergedStrategyVectors drives the full merge round
// trip for the weighted-strategy vector metrics: two daemons expose
// per-candidate pick counters and per-node capacity gauges, the cluster
// merge sums them element-wise, and the summary view
// renders the summed cells as index:value pairs.
func TestSummaryRendersMergedStrategyVectors(t *testing.T) {
	r1, r2 := obs.New(), obs.New()
	r1.CounterVec("core_strategy_read_pick_total").At(0).Add(30)
	r1.CounterVec("core_strategy_read_pick_total").At(2).Add(5)
	r2.CounterVec("core_strategy_read_pick_total").At(0).Add(12)
	r1.CounterVec("core_strategy_write_pick_total").At(1).Add(8)
	// Both daemons publish the same declared capacity map; each measured
	// node 4 from where it sits, and only the first has solved twice and
	// predicts a utilisation. The capacity line shows the means; the raw
	// vectors below it stay cluster sums.
	for _, r := range []*obs.Registry{r1, r2} {
		for id := 0; id < 5; id++ {
			r.GaugeVec("core_node_declared_capacity_milli").At(id).Set(1000)
		}
		r.GaugeVec("core_node_declared_capacity_milli").At(4).Set(100)
	}
	r1.GaugeVec("core_node_capacity_milli").At(4).Set(3)
	r2.GaugeVec("core_node_capacity_milli").At(4).Set(5)
	r1.GaugeVec("core_node_utilization_milli").At(4).Set(310)
	r1.GaugeVec("core_strategy_entropy_milli").At(0).Set(2100)
	// Only the first daemon has solved: 1.980 against a bound of 2.000.
	r1.Gauge("core_strategy_capacity_milli").Set(1980)
	r1.Gauge("core_strategy_capacity_bound_milli").Set(2000)
	r1.Counter("core_reads_total").Add(3)
	r1.Counter("replica_lock_waited_total").Add(5)
	r2.Counter("replica_lock_waited_total").Add(4)
	r1.Counter("replica_lock_refused_total").Add(40)
	r2.Counter("replica_lock_refused_total").Add(2)
	r2.Counter("core_lock_retry_total").Add(17)
	r1.Counter("core_push_sent_total").Add(400)
	r1.Counter("core_push_skipped_total").Add(100)
	r2.Counter("replica_push_applied_total").Add(390)
	r2.Counter("replica_push_refused_gap_total").Add(10)
	r1.Counter("core_spec_prepare_hit_total").Add(97)
	r2.Counter("core_spec_prepare_miss_total").Add(3)
	// 100 + 50 write rounds to 300 + 100 members: no read round anywhere.
	r1.CounterVec("core_quorum_rounds_total").At(1).Add(100)
	r1.CounterVec("core_quorum_members_total").At(1).Add(300)
	r2.CounterVec("core_quorum_rounds_total").At(1).Add(50)
	r2.CounterVec("core_quorum_members_total").At(1).Add(100)
	// 3 072 replicas of 1 KB on each daemon, in 16.55 MB of heap apiece.
	for _, r := range []*obs.Registry{r1, r2} {
		r.Gauge("replica_items").Set(3072)
		r.Gauge("replica_payload_bytes").Set(3072 << 10)
		r.Gauge("process_heap_bytes").Set(1655 << 20 / 100)
	}

	cs := capi.MergeNodes([]capi.NodeSnapshot{
		nodeSnapshot(t, "a:9100", r1),
		nodeSnapshot(t, "b:9100", r2),
	})

	var out bytes.Buffer
	printSummary(&out, cs)
	got := out.String()

	for _, want := range []string{
		"counter vectors (cluster sum, index:value):",
		"gauge vectors (cluster sum, index:value):",
		"gauges (cluster sum):",
		"0:42 2:5", // read picks summed across both daemons
		"1:8",      // write picks from the single daemon that had any
		"4:8",      // used-capacity cells summed node-wise
		"capacity: pred 1.980 of at most 2.000 (gap 1.0 %) | n0 declared 1.000 used 0.000 util pred 0.000 | ",
		"n4 declared 0.100 used 0.004 util pred 0.310\n",
		"0:2100", // read-distribution entropy
		"1980",   // predicted capacity gauge
		"lock conflicts: waited=9 refused=42 rerun=17 denied=0 expired=0 decision-unknown=0",
		"write-through: sent=400 applied=390 refused(gap)=10 refused(busy)=0 refused(stale)=0 refused(recovering)=0 skipped=100 | spec hit=97 miss=3",
		"quorum size: read=- write=2.67 (mean members per round)",
		"memory: items=6144 payload=6.0 MB heap=33.1 MB (5.5 x)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	for _, name := range []string{
		"core_strategy_read_pick_total",
		"core_strategy_write_pick_total",
		"core_node_capacity_milli",
		"core_strategy_entropy_milli",
	} {
		if !strings.Contains(got, name) {
			t.Errorf("summary missing vector %q:\n%s", name, got)
		}
	}
}

// TestMemoryLineShowsDecisionRings: the memory line ends with what the
// daemons' decision rings hold, summed, when they hold anything.
func TestMemoryLineShowsDecisionRings(t *testing.T) {
	r1, r2 := obs.New(), obs.New()
	for _, r := range []*obs.Registry{r1, r2} {
		r.Gauge("replica_items").Set(8)
		r.Gauge("replica_payload_bytes").Set(1 << 20)
		r.Gauge("process_heap_bytes").Set(4 << 20)
	}
	// 72 full rings of 34 848 bytes on one daemon, one of 96 on the other.
	r1.Gauge("replica_decision_bytes").Set(72 * 34848)
	r2.Gauge("replica_decision_bytes").Set(96)
	var out bytes.Buffer
	printSummary(&out, capi.MergeNodes([]capi.NodeSnapshot{nodeSnapshot(t, "a:9100", r1), nodeSnapshot(t, "b:9100", r2)}))
	if want := "memory: items=16 payload=2.0 MB heap=8.0 MB (4.0 x) decisions=2.4 MB\n"; !strings.Contains(out.String(), want) {
		t.Errorf("summary missing %q:\n%s", want, out.String())
	}
}

// TestFmtVec pins the rendering contract: zero cells are skipped, an
// all-zero vector renders empty (and so stays off the summary screen).
func TestFmtVec(t *testing.T) {
	if got := fmtVec([]uint64{0, 3, 0, 9}); got != "1:3 3:9" {
		t.Fatalf("fmtVec = %q", got)
	}
	if got := fmtVec([]int64{-2, 0}); got != "0:-2" {
		t.Fatalf("fmtVec = %q", got)
	}
	if got := fmtVec([]uint64{0, 0}); got != "" {
		t.Fatalf("fmtVec all-zero = %q", got)
	}
}
