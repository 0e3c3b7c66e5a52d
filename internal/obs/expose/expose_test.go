package expose

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

func sampleRegistry() *obs.Registry {
	r := obs.New()
	r.Counter("proto_writes_total").Add(5)
	r.Gauge("proto_inflight").Set(2)
	r.Histogram("proto_latency_ns").Record(1500)
	r.Histogram("proto_latency_ns").Record(0)
	r.CounterVec("endpoint_served").At(2).Add(9)
	r.GaugeVec("endpoint_load").At(1).Set(7)
	f := obs.NewFlightRecorder(4)
	r.SetFlight(f)
	a := f.Begin(obs.OpWrite, 1, 1, "item-a", time.Now())
	a.Quorum(nodeset.New(0, 1, 2), 3, 3)
	a.Batch(3, 2, 4)
	a.StaleMark(nodeset.New(2), 4)
	a.End(obs.OutcomeOK, 4, time.Now())
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, sampleRegistry()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE proto_writes_total counter",
		"proto_writes_total 5",
		"proto_inflight 2",
		`endpoint_served{index="2"} 9`,
		`endpoint_load{index="1"} 7`,
		"proto_latency_ns_count 2",
		"proto_latency_ns_sum 1500",
		`proto_latency_ns_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: the zero lands in le="0", so that bucket is 1.
	if !strings.Contains(out, `proto_latency_ns_bucket{le="0"} 1`) {
		t.Errorf("zero bucket missing:\n%s", out)
	}
	// Tail quantile comment line: p50/p99/p999 at a glance for text
	// readers, invisible to scrapers.
	if !strings.Contains(out, "# proto_latency_ns p50=") || !strings.Contains(out, " p999=") {
		t.Errorf("quantile comment line missing:\n%s", out)
	}
}

// TestP999Rendering pins the p999 field across both expositions with a
// distribution whose p99 and p999 split: 1997 fast points, 3 at ~1ms.
func TestP999Rendering(t *testing.T) {
	r := obs.New()
	h := r.Histogram("op_latency_ns")
	for i := 0; i < 1997; i++ {
		h.Record(1000)
	}
	for i := 0; i < 3; i++ {
		h.Record(1_000_000)
	}

	var jb strings.Builder
	if err := WriteJSON(&jb, r); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Histograms map[string]struct {
			P50  uint64 `json:"p50"`
			P99  uint64 `json:"p99"`
			P999 uint64 `json:"p999"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(jb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	jh, ok := decoded.Histograms["op_latency_ns"]
	if !ok {
		t.Fatalf("histogram missing from JSON:\n%s", jb.String())
	}
	if jh.P99 >= 500_000 {
		t.Errorf("json p99 = %d landed in the tail", jh.P99)
	}
	if jh.P999 < 524_288 || jh.P999 > 1_048_575 {
		t.Errorf("json p999 = %d, want inside the 1ms bucket", jh.P999)
	}
	if !(jh.P50 <= jh.P99 && jh.P99 <= jh.P999) {
		t.Errorf("json quantiles not monotone: %d %d %d", jh.P50, jh.P99, jh.P999)
	}

	var pb strings.Builder
	if err := WritePrometheus(&pb, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pb.String(), "# op_latency_ns p50=") {
		t.Errorf("text quantile line missing:\n%s", pb.String())
	}
}

func TestWriteJSONAndHandler(t *testing.T) {
	r := sampleRegistry()
	var b strings.Builder
	if err := WriteJSON(&b, r); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := decoded["traces"]; !ok {
		t.Fatalf("JSON snapshot missing traces: %s", b.String())
	}

	h := Handler(r)
	for _, tc := range []struct {
		url, want string
	}{
		{"/metrics", "proto_writes_total 5"},
		{"/metrics?format=json", `"proto_writes_total": 5`},
		{"/metrics?format=traces", "stale-mark"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: missing %q in:\n%s", tc.url, tc.want, rec.Body.String())
		}
	}
}

func TestFormatTrace(t *testing.T) {
	traces := sampleRegistry().Snapshot().Traces
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	out := FormatTrace(&traces[0])
	for _, want := range []string{"write item=item-a", "outcome=ok", "quorum", "{0 1 2}", "grid=3x3", "batch", "3 writes versions=2..4", "stale-mark", "desired_version=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted trace missing %q:\n%s", want, out)
		}
	}
}
