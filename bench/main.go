// Command bench is the repository's one benchmark: five fixed workloads,
// six end-to-end metrics each, and a per-layer budget measured from
// outside the program (counters, spans around calls into each layer, and
// isolated drives). README.md in this directory says what every name
// means and which layer metric should move which end-to-end metric.
//
// The driver runs one workload per process:
//
//	bench --workload sim_hot --seed 7 --seconds 15 --trace 0   end-to-end metrics
//	bench --workload sim_hot --seed 7 --seconds 15 --trace 1   per-layer metrics
//
// and reads the JSON object on the last line of standard output. Without
// --workload the program runs the whole suite and prints a report:
//
//	bench [-only a,b] [-layers-only] [-quick] [-sets N] [-seed N]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// The issue's load shape: 3 s of warm-up, 15 s measured, a 5 s traced run.
// A --trace 1 run splits its --seconds three ways (untraced counts, traced
// spans, isolated drives) so that it costs no more than a --trace 0 run.
const (
	warmUp       = 3 * time.Second
	suiteMeasure = 15 * time.Second
	suiteTraced  = 5 * time.Second
	shortWarmUp  = time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print the driver's JSON line")
	seed := fs.Int64("seed", 1, "seed of every generator")
	seconds := fs.Int("seconds", int(suiteMeasure/time.Second), "with -workload: seconds measured")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	only := fs.String("only", "", "suite: comma-separated workloads to run (default all)")
	layersOnly := fs.Bool("layers-only", false, "suite: run only the isolated layer drives")
	quick := fs.Bool("quick", false, "suite: 2 s measured, no bounds evaluated, output marked quick")
	sets := fs.Int("sets", 1, "suite: run the end-to-end suite this many times (seed, seed+1, ...) and compare the sets")
	out := fs.String("out", defaultOut(), "directory for trace-<workload>.json, result.json and spread.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "bench: warning: %d CPU; the benchmark shares it with the runtime's own threads and the host\n", runtime.NumCPU())
	}
	// One processor for the client goroutines and the system under test
	// together. On the 2-vCPU hosts this runs on, a process with two
	// settles for its whole life into one of two states — a goroutine
	// hand-off stays on the processor that made it (about 1 µs) or wakes
	// the idle one (7–20 µs) — and the state, not the code, decides the
	// result: same seed, same binary, sim_hot 3.3 k or 6 k ops/s,
	// sim_faultcycle reads of 11 or 27 µs, sim_disjoint 44 k or 24 k ops/s.
	// With one, every hand-off is the cheap kind and the second vCPU takes
	// the collector, the runtime's monitor and the host's own noise.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	var err error
	switch {
	case *workload != "":
		err = driverRun(ctx, stdout, stderr, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	case *sets > 1:
		err = setsRun(ctx, stdout, selected(*only), *seed, *sets, *quick, *out)
	default:
		err = suiteRun(ctx, stdout, selected(*only), *seed, *quick, *layersOnly, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: FAIL:", err)
		return 1
	}
	return 0
}

// defaultOut is bench/out seen from the repository root, out seen from
// the bench directory itself (go run -C bench .).
func defaultOut() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func selected(only string) []workloadDef {
	if only == "" {
		return workloads
	}
	var out []workloadDef
	for _, name := range strings.Split(only, ",") {
		if w, ok := findWorkload(strings.TrimSpace(name)); ok {
			out = append(out, w)
		}
	}
	return out
}

// driverResult is the one JSON object the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared but not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(decls) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s measured but not declared", name)
			}
		}
	}
	return out, nil
}

// driverRun is one run of one workload under the driver's contract. Any
// set-up failure, one-copy violation or read-back mismatch is an error:
// the process exits non-zero and prints no result.
func driverRun(ctx context.Context, stdout, stderr io.Writer, name string, seed int64, measure time.Duration, traced bool, out string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if measure <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var res driverResult
	if !traced {
		r, err := w.run(ctx, seed, runOpts{setups: w.setups, warm: warmUp, measure: measure})
		if err != nil {
			return err
		}
		noteFailures(stderr, r)
		res = driverResult{Correct: true, Attempted: r.stats.attempted, Failed: r.stats.failed}
		if res.Metrics, err = withUnits(endToEnd, endToEndMetrics(r)); err != nil {
			return err
		}
	} else {
		layers, attempted, failed, err := layerRun(ctx, stderr, w, seed, shortWarmUp, measure/3, measure/3, 0, out)
		if err != nil {
			return err
		}
		res = driverResult{Correct: true, Attempted: attempted, Failed: failed}
		if res.Metrics, err = withUnits(perLayer, layers); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}

func noteFailures(stderr io.Writer, r runResult) {
	if r.stats.failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed; the first: %v\n", r.stats.failed, r.stats.attempted, r.stats.firstErr)
	}
}

// layerRun produces every per-layer metric of one workload: counts from an
// untraced phase of length counted, spans from a traced phase of length
// spanned, and the isolated drives. A caller that already has an untraced
// run's throughput passes it as untracedOps and counted 0.
func layerRun(ctx context.Context, stderr io.Writer, w workloadDef, seed int64, warm, counted, spanned time.Duration, untracedOps float64, out string) (map[string]float64, int, int, error) {
	m := map[string]float64{}
	attempted, failed := 0, 0
	merge := func(from map[string]float64) {
		for k, v := range from {
			m[k] = v
		}
	}
	if counted > 0 {
		r, err := w.run(ctx, seed, runOpts{setups: 1, warm: warm, measure: counted})
		if err != nil {
			return nil, 0, 0, err
		}
		noteFailures(stderr, r)
		merge(r.layerCounts())
		untracedOps = r.sum.meanOpsPerSec
		attempted, failed = r.stats.attempted, r.stats.failed
	}
	tr, err := w.run(ctx, seed, runOpts{setups: 1, warm: warm, measure: spanned, traced: true})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("traced run: %w", err)
	}
	noteFailures(stderr, tr)
	merge(traceMetrics(w, tr, untracedOps))
	attempted += tr.stats.attempted
	failed += tr.stats.failed
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if err := tr.tracer.writeFile(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
		return nil, 0, 0, err
	}
	drives, err := isolatedDrives()
	if err != nil {
		return nil, 0, 0, err
	}
	merge(drives)
	return m, attempted, failed, nil
}

// layerCounts are the count-based layer metrics of an untraced run.
func (r runResult) layerCounts() map[string]float64 {
	m := make(map[string]float64, len(r.counts)+2)
	for k, v := range r.counts {
		m[k] = v
	}
	m["onecopy.events_checked"] = float64(r.events)
	m["onecopy.check_ms"] = r.checkMs
	return m
}

// hostInfo states where the numbers come from.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// workloadReport is one workload's row of the suite report.
type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reads     int                `json:"read_samples"`
	Writes    int                `json:"write_samples"`
	Onecopy   int                `json:"onecopy_violations"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// suiteReport is result.json. claim is last and null: this program
// measures, it claims no gain.
type suiteReport struct {
	Host      hostInfo           `json:"host"`
	Quick     bool               `json:"quick"`
	Load      string             `json:"load"`
	Workloads []workloadReport   `json:"workloads"`
	Layers    map[string]float64 `json:"isolated_layers,omitempty"`
	Claim     *string            `json:"claim"`
}

const loadNote = "closed loop, 2 client goroutines (1 on sim_faultcycle) in one process under GOMAXPROCS 1; sim workloads inject zero message delay, so their latency is processor time only"

type phaseLengths struct{ warm, measure, traced time.Duration }

func lengths(quick bool) phaseLengths {
	if quick {
		return phaseLengths{warm: 500 * time.Millisecond, measure: 2 * time.Second, traced: time.Second}
	}
	return phaseLengths{warm: warmUp, measure: suiteMeasure, traced: suiteTraced}
}

// suiteRun runs the selected workloads end to end, then traced, then the
// isolated drives, prints every metric by name and writes result.json.
func suiteRun(ctx context.Context, stdout io.Writer, ws []workloadDef, seed int64, quick, layersOnly bool, out string) error {
	rep := suiteReport{Host: host(), Quick: quick, Load: loadNote}
	fmt.Fprintf(stdout, "host: %d CPU, GOMAXPROCS %d, %s, commit %s\nload: %s\n", rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Commit, loadNote)
	if layersOnly {
		drives, err := isolatedDrives()
		if err != nil {
			return err
		}
		rep.Layers = drives
		printMetrics(stdout, "isolated layer drives", perLayer, drives)
		return writeJSON(filepath.Join(out, "result.json"), rep)
	}
	ln := lengths(quick)
	for _, w := range ws {
		setups := w.setups
		if quick {
			setups = 1
		}
		r, err := w.run(ctx, seed, runOpts{setups: setups, warm: ln.warm, measure: ln.measure})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		layers, _, _, err := layerRun(ctx, stdout, w, seed, min(ln.warm, shortWarmUp), 0, ln.traced, r.sum.meanOpsPerSec, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for k, v := range r.layerCounts() {
			layers[k] = v
		}
		wr := workloadReport{
			Name: w.name, Why: w.why, Seed: seed, Attempted: r.stats.attempted, Failed: r.stats.failed,
			Reads: r.sum.reads, Writes: r.sum.writes, EndToEnd: endToEndMetrics(r), PerLayer: layers,
		}
		rep.Workloads = append(rep.Workloads, wr)
		fmt.Fprintf(stdout, "\n== %s: %d operations attempted, %d failed, %d read and %d write latency samples, %d events one-copy checked, 0 violations\n",
			w.name, wr.Attempted, wr.Failed, wr.Reads, wr.Writes, r.events)
		if r.stats.failed > 0 {
			fmt.Fprintf(stdout, "   first failure: %v\n", r.stats.firstErr)
		}
		printMetrics(stdout, "end to end", endToEnd, wr.EndToEnd)
		printMetrics(stdout, "per layer", perLayer, wr.PerLayer)
	}
	return writeJSON(filepath.Join(out, "result.json"), rep)
}

func printMetrics(w io.Writer, title string, decls []metricDecl, values map[string]float64) {
	fmt.Fprintf(w, "-- %s\n", title)
	for _, d := range decls {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(w, "   %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// cellSpread is one metric × workload cell of the repeatability check.
type cellSpread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// Spread is, for two sets, their difference as a share of their mean;
	// for more, the distance between the first and third quartile as a
	// share of the median, which is what the driver computes.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within_bound"`
}

// setsRun repeats the end-to-end suite n times, set i with seed+i, and
// compares the sets cell by cell against the bounds.
func setsRun(ctx context.Context, stdout io.Writer, ws []workloadDef, seed int64, n int, quick bool, out string) error {
	ln := lengths(quick)
	values := map[string][]float64{} // "workload/metric" → one value per set
	for set := 0; set < n; set++ {
		for _, w := range ws {
			r, err := w.run(ctx, seed+int64(set), runOpts{setups: w.setups, warm: ln.warm, measure: ln.measure})
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set, w.name, err)
			}
			if r.stats.failed > 0 {
				fmt.Fprintf(stdout, "set %d, %s: %d of %d operations failed; the first: %v\n", set, w.name, r.stats.failed, r.stats.attempted, r.stats.firstErr)
			}
			for name, v := range endToEndMetrics(r) {
				key := w.name + "/" + name
				values[key] = append(values[key], v)
			}
			fmt.Fprintf(stdout, "set %d %s done\n", set, w.name)
		}
	}
	var cells []cellSpread
	outside := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			vs := values[w.name+"/"+d.name]
			c := cellSpread{Workload: w.name, Metric: d.name, Values: vs, Median: median(vs), Spread: spread(vs), Bound: d.bound}
			// setup_s is compared between whole sets of runs by the driver,
			// not within one; its spread is recorded and not judged.
			c.Within = quick || d.name == "setup_s" || c.Spread <= d.bound
			if !c.Within {
				outside++
			}
			cells = append(cells, c)
			verdict := "ok"
			if !c.Within {
				verdict = "OUTSIDE"
			}
			fmt.Fprintf(stdout, "%-15s %-16s median %12.4f %-4s spread %7.4f bound %5.3f %s\n", c.Workload, c.Metric, c.Median, d.unit, c.Spread, c.Bound, verdict)
		}
	}
	report := struct {
		Host  hostInfo     `json:"host"`
		Quick bool         `json:"quick"`
		Sets  int          `json:"sets"`
		Seed  int64        `json:"first_seed"`
		Cells []cellSpread `json:"cells"`
	}{host(), quick, n, seed, cells}
	if err := writeJSON(filepath.Join(out, "spread.json"), report); err != nil {
		return err
	}
	if outside > 0 {
		return fmt.Errorf("%d end-to-end cells disagree between sets by more than their bound", outside)
	}
	return nil
}

// spread is the run-to-run spread of one cell; see cellSpread.Spread.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) == 2 {
		if mean := (s[0] + s[1]) / 2; mean != 0 {
			return (s[1] - s[0]) / mean
		}
		return 0
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(s, 3) - quartile(s, 1)) / med
}

// quartile is Python's statistics.quantiles(values, n=4)[i-1] (the
// default, exclusive method) on sorted values.
func quartile(sorted []float64, i int) float64 {
	m := len(sorted)
	j := i * (m + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := float64(i*(m+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}
