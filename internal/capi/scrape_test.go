package capi

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/obs/expose"
)

// snapshotBody renders a registry exactly as a daemon's admin endpoint
// would (/metrics?format=json) and parses it back through the scraper —
// the full exposition→aggregation round trip, minus the socket.
func snapshotBody(t *testing.T, addr string, r *obs.Registry) *NodeSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := expose.WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	ns, err := ParseSnapshot(addr, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestScrapeParseRoundTrip: counters, gauges, vectors, gauge vectors,
// histograms (bucket-exact, reconstructed from the sparse le_ keys),
// histogram vectors, and traces all survive the JSON round trip.
func TestScrapeParseRoundTrip(t *testing.T) {
	r := obs.New()
	r.SetFlight(obs.NewFlightRecorder(8))
	r.Counter("writes_total").Add(41)
	r.Gauge("conns_live").Set(3)
	r.CounterVec("per_node_total").At(2).Add(9)
	r.GaugeVec("depth").At(1).Set(-4)
	h := r.Histogram("lat_ns")
	h.Record(1)   // bucket 1
	h.Record(100) // bucket 7
	h.Record(1 << 40)
	r.HistogramVec("route_ns").At(3).Record(500)

	a := r.Flight().Begin(obs.OpWrite, 2, 77, "item-x", time.Now())
	a.Trace(obs.TraceContext{TraceID: 0xabc, SpanID: 0xdef, Sampled: true})
	a.End(obs.OutcomeOK, 5, time.Now())

	ns := snapshotBody(t, "n0:9100", r)
	if ns.Counters["writes_total"] != 41 || ns.Gauges["conns_live"] != 3 {
		t.Fatalf("scalars = %v %v", ns.Counters, ns.Gauges)
	}
	if v := ns.Vecs["per_node_total"]; len(v) != 3 || v[2] != 9 {
		t.Fatalf("vec = %v", v)
	}
	if v := ns.GaugeVecs["depth"]; len(v) != 2 || v[1] != -4 {
		t.Fatalf("gauge vec = %v", v)
	}
	want := h.Snapshot()
	got := ns.Hists["lat_ns"]
	if got.Count != want.Count || got.Sum != want.Sum || got.Buckets != want.Buckets {
		t.Fatalf("histogram round trip:\n got  %+v\n want %+v", got, want)
	}
	rv := ns.HistVecs["route_ns"]
	if len(rv) != 4 || rv[3].Count != 1 || rv[3].Sum != 500 {
		t.Fatalf("hist vec = %+v", rv)
	}
	if len(ns.Traces) != 1 {
		t.Fatalf("traces = %+v", ns.Traces)
	}
	tr := ns.Traces[0]
	if tr.Kind != "write" || tr.Node != 2 || tr.Item != "item-x" || tr.TraceID != expose.FormatTraceID(0xabc) {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.ScrapedFrom != "n0:9100" {
		t.Fatalf("ScrapedFrom = %q", tr.ScrapedFrom)
	}
}

// TestClusterMerge: merging node snapshots sums overlapping counter names,
// keeps disjoint names, bucket-sums histograms (quantiles over the merged
// distribution), element-wise sums vectors of different lengths, and
// merges GaugeVec snapshots.
func TestClusterMerge(t *testing.T) {
	r1, r2 := obs.New(), obs.New()
	r1.Counter("shared_total").Add(10)
	r2.Counter("shared_total").Add(32)
	r1.Counter("only_n1_total").Add(7)
	r2.Counter("only_n2_total").Add(5)
	r1.Gauge("live").Set(2)
	r2.Gauge("live").Set(3)
	r1.CounterVec("per_shard").At(0).Add(1)
	r2.CounterVec("per_shard").At(2).Add(4) // longer vector on n2
	r1.GaugeVec("owned").At(1).Set(6)
	r2.GaugeVec("owned").At(1).Set(-2)
	for i := 0; i < 100; i++ {
		r1.Histogram("lat_ns").Record(10) // all in one low bucket
	}
	r2.Histogram("lat_ns").Record(1 << 30) // one far-tail sample
	r1.HistogramVec("route_ns").At(1).Record(50)
	r2.HistogramVec("route_ns").At(1).Record(70)

	cs := MergeNodes([]NodeSnapshot{
		*snapshotBody(t, "a", r1),
		*snapshotBody(t, "b", r2),
	})
	if cs.Counters["shared_total"] != 42 {
		t.Fatalf("shared_total = %d", cs.Counters["shared_total"])
	}
	if cs.Counters["only_n1_total"] != 7 || cs.Counters["only_n2_total"] != 5 {
		t.Fatalf("disjoint counters = %v", cs.Counters)
	}
	if cs.Gauges["live"] != 5 {
		t.Fatalf("live = %d", cs.Gauges["live"])
	}
	if v := cs.Vecs["per_shard"]; len(v) != 3 || v[0] != 1 || v[2] != 4 {
		t.Fatalf("per_shard = %v", v)
	}
	if v := cs.GaugeVecs["owned"]; len(v) != 2 || v[1] != 4 {
		t.Fatalf("owned = %v", v)
	}
	h := cs.Hists["lat_ns"]
	if h.Count != 101 || h.Sum != 100*10+1<<30 {
		t.Fatalf("merged hist count=%d sum=%d", h.Count, h.Sum)
	}
	// The median is in the low bucket; the max quantile reaches the tail
	// sample's bucket — cross-node tails survive the merge.
	if p50 := h.Quantile(0.5); p50 > 100 {
		t.Fatalf("merged p50 = %d, want low-bucket value", p50)
	}
	if pMax := h.Quantile(1); pMax < 1<<29 {
		t.Fatalf("merged max quantile = %d, want far-tail value", pMax)
	}
	rv := cs.HistVecs["route_ns"]
	if len(rv) != 2 || rv[1].Count != 2 || rv[1].Sum != 120 {
		t.Fatalf("merged hist vec = %+v", rv)
	}
}

// TestTimelineAcrossNodes: spans tagged with one trace ID on different
// nodes assemble into a single start-ordered timeline; other trace IDs
// and untraced flight records stay out.
func TestTimelineAcrossNodes(t *testing.T) {
	mk := func(node int, kind obs.OpKind, traceID uint64, delay time.Duration) *obs.Registry {
		r := obs.New()
		r.SetFlight(obs.NewFlightRecorder(8))
		time.Sleep(delay) // order the Start timestamps deterministically
		a := r.Flight().Begin(kind, nodeset.ID(node), 1, "item-y", time.Now())
		if traceID != 0 {
			a.Trace(obs.TraceContext{TraceID: traceID, SpanID: 9, Sampled: true})
		}
		a.End(obs.OutcomeOK, 1, time.Now())
		return r
	}
	coord := mk(0, obs.OpWrite, 0x5151, 0)
	srv1 := mk(1, obs.OpServe, 0x5151, time.Millisecond)
	srv2 := mk(2, obs.OpServe, 0x5151, 2*time.Millisecond)
	other := mk(3, obs.OpServe, 0x7777, 0)

	cs := MergeNodes([]NodeSnapshot{
		*snapshotBody(t, "n1", srv1),
		*snapshotBody(t, "n3", other),
		*snapshotBody(t, "n0", coord),
		*snapshotBody(t, "n2", srv2),
	})
	spans, err := cs.Timeline("5151")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3: %+v", len(spans), spans)
	}
	if spans[0].Kind != "write" || spans[0].Node != 0 {
		t.Fatalf("first span = %+v, want the coordinator's", spans[0])
	}
	if spans[1].Node != 1 || spans[2].Node != 2 {
		t.Fatalf("serve spans out of order: %+v", spans[1:])
	}
	if ids := cs.TraceIDs(); len(ids) != 2 {
		t.Fatalf("TraceIDs = %v", ids)
	}
	if _, err := cs.Timeline("zzz"); err == nil {
		t.Fatal("bad trace ID accepted")
	}
}

// TestScrapeClusterHTTP drives ScrapeCluster against two live HTTP servers
// serving the real expose handler, plus one dead address — the dead node
// degrades to an entry in Errs, the rest merge.
func TestScrapeClusterHTTP(t *testing.T) {
	mk := func(val uint64) *httptest.Server {
		r := obs.New()
		r.Counter("ops_total").Add(val)
		mux := http.NewServeMux()
		mux.Handle("/metrics", expose.Handler(r))
		return httptest.NewServer(mux)
	}
	s1, s2 := mk(30), mk(12)
	defer s1.Close()
	defer s2.Close()
	addr := func(s *httptest.Server) string { return s.Listener.Addr().String() }

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cs := ScrapeCluster(ctx, nil, []string{addr(s1), addr(s2), "127.0.0.1:1"})
	if len(cs.Nodes) != 2 || len(cs.Errs) != 1 {
		t.Fatalf("nodes=%d errs=%v", len(cs.Nodes), cs.Errs)
	}
	if cs.Counters["ops_total"] != 42 {
		t.Fatalf("merged ops_total = %d", cs.Counters["ops_total"])
	}
}
