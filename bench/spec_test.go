package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json; unknown keys are an error, the
// driver wants exactly these.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram: what BENCHMARK.json declares is what the
// program emits — the same workloads with the same reasons, the same
// metrics with the same units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), program has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if f := b.EndToEnd[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
			t.Errorf("end-to-end %d: file has %+v, program has %+v", i, f, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if f := b.PerLayer[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer %d: file has %+v, program has %+v", i, f, d)
		}
	}
}

// TestBenchmarkJSONWithinContract checks the limits the driver refuses a
// file for.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	b := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %+v", m)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command %v", b.Command)
	}
	if st, err := os.Stat("../BENCHMARK.json"); err != nil || st.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, %d bytes", err, st.Size())
	}
}

// TestSpreadIsTheDriversStatistic pins quartile() to Python's
// statistics.quantiles(values, n=4).
func TestSpreadIsTheDriversStatistic(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(ten, 1), quartile(ten, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	five := []float64{10, 12, 11, 15, 9}
	if q1, q3 := quartile([]float64{9, 10, 11, 12, 15}, 1), quartile([]float64{9, 10, 11, 12, 15}, 3); q1 != 9.5 || q3 != 13.5 {
		t.Errorf("quartiles = %v, %v, want 9.5, 13.5", q1, q3)
	}
	if got, want := spread(five), 4.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got, want := spread([]float64{90, 110}), 0.2; got != want {
		t.Errorf("two sets: spread = %v, want %v", got, want)
	}
}
