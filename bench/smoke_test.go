package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEveryWorkloadRuns takes every workload through its whole life with
// 150 ms phases: set-up, warm-up, measurement, the one-copy check and
// read-back, live heap. tcp_sharded runs traced, so the
// client-side decorator is covered too. Every end-to-end metric must come
// out, and none may be 0 — the driver divides by them.
func TestEveryWorkloadRuns(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		r, err := w.run(ctx, 3, runOpts{setups: 1, warm: 20 * time.Millisecond, measure: 150 * time.Millisecond, traced: w.name == "tcp_sharded"})
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if r.stats.attempted == 0 || r.stats.failed != 0 {
			t.Errorf("%s: %d attempted, %d failed (%v)", w.name, r.stats.attempted, r.stats.failed, r.stats.firstErr)
		}
		if r.events < r.stats.attempted {
			t.Errorf("%s: %d events checked for %d operations", w.name, r.events, r.stats.attempted)
		}
		if n := r.counts["core.recoveries"]; (n > 0) != (w.name == "sim_faultcycle") {
			t.Errorf("%s: %v recoveries timed; only sim_faultcycle injects faults", w.name, n)
		}
		values, err := withUnits(endToEnd, endToEndMetrics(r))
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name, v := range values {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v.Value)
			}
		}
	}
}

// TestPerLayerMetricsComplete runs the --trace 1 path on one workload with
// short phases and shortened drives: every declared layer metric is
// emitted, nothing undeclared is, the budget of the traced run adds up,
// and the trace file holds spans.
func TestPerLayerMetricsComplete(t *testing.T) {
	driveDivisor = 200
	defer func() { driveDivisor = 1 }()
	out := t.TempDir()
	w, _ := findWorkload("sim_hot")
	layers, attempted, failed, err := layerRun(context.Background(), io.Discard, w, 3, 20*time.Millisecond, 100*time.Millisecond, 100*time.Millisecond, 0, out)
	if err != nil {
		t.Fatal(err)
	}
	if attempted == 0 || failed != 0 {
		t.Errorf("%d attempted, %d failed", attempted, failed)
	}
	if _, err := withUnits(perLayer, layers); err != nil {
		t.Error(err)
	}
	for _, kind := range []string{"read", "write"} {
		sum := layers["core."+kind+"_self_us"] + layers["transport."+kind+"_self_us"] + layers["replica."+kind+"_self_us"]
		if mean := layers["trace."+kind+"_mean_us"]; mean <= 0 || math.Abs(sum-mean) > 0.05*mean {
			t.Errorf("%s: layer self times sum to %.3f us, the traced mean is %.3f us", kind, sum, mean)
		}
	}
	buf, err := os.ReadFile(filepath.Join(out, "trace-sim_hot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(buf, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %v, %d spans", err, len(spans))
	}
	if spans[0].Name != "core.Coordinator.Read" && spans[0].Name != "core.Coordinator.Write" {
		t.Errorf("first span is %q, want a root", spans[0].Name)
	}
}

// TestDriverLine: the last line of a driver run is one JSON object with
// exactly the contract's keys, each metric with its value and unit.
func TestDriverLine(t *testing.T) {
	values := map[string]float64{}
	for i, d := range endToEnd {
		values[d.name] = float64(i) + 0.5
	}
	metrics, err := withUnits(endToEnd, values)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := json.NewEncoder(&stdout).Encode(driverResult{Correct: true, Attempted: 10, Failed: 0, Metrics: metrics}); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("keys: %v", line)
	}
	var got map[string]metricValue
	if err := json.Unmarshal(line["metrics"], &got); err != nil || len(got) != len(endToEnd) || got["setup_s"].Unit != "s" || got["ops_per_s"].Value != 0.5 {
		t.Errorf("metrics: %v %v", err, got)
	}

	delete(values, "setup_s")
	if _, err := withUnits(endToEnd, values); err == nil {
		t.Error("a declared metric that was not measured must be an error")
	}
	values["setup_s"], values["surprise"] = 1, 1
	if _, err := withUnits(endToEnd, values); err == nil {
		t.Error("a measured metric that was not declared must be an error")
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
