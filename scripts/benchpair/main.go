// Command benchpair compares two checkouts of this repository on one
// workload of the repository's benchmark (BENCHMARK.json, bench/run.sh) the
// way a performance claim has to be compared: N pairs of runs, parent and
// change alternating which goes first, the same seed and run length on both
// sides. For every metric it prints each side's median and quartiles, the
// ratio of the medians and how many pairs the change won, and says whether
// the change is better by the claim rule (at least nine pairs in ten won and
// medians further apart than the parent's own quartiles), within the
// benchmark's bound, or a regression.
//
// Usage (make bench-pair W=sim_hot N=10 does the first two steps itself):
//
//	git archive <parent-ref> | tar -x -C /tmp/parent
//	go run ./scripts/benchpair -parent /tmp/parent -change . -w sim_hot -n 10
//
// With -trace the runs are --trace 1 runs and the table holds the per-layer
// metrics instead (counts and spans; no bounds apply to them).
//
// -w takes one workload, a comma-separated list, or "all" for every workload
// BENCHMARK.json declares (make bench-pair-all). With more than one, each
// workload's table is followed by a combined one — a row per workload, a
// column per metric, each cell the ratio of the medians and its verdict —
// and, given -claim workload:metric, a last line that says whether that cell
// meets the claim rule and whether every other cell is within its bound:
// both halves of a performance claim from one command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type runOutput struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	parent := flag.String("parent", "", "checkout of the parent commit")
	change := flag.String("change", ".", "checkout of the change")
	workloads := flag.String("w", "sim_hot", "workload name, a comma-separated list, or \"all\"")
	claim := flag.String("claim", "", "workload:metric the change claims to improve (for the combined table)")
	pairs := flag.Int("n", 10, "pairs of runs")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	trace := flag.Bool("trace", false, "compare the per-layer metrics of --trace 1 runs")
	only := flag.String("metrics", "", "comma-separated metric name prefixes to print (default all)")
	flag.Parse()
	if *parent == "" {
		fmt.Fprintln(os.Stderr, "benchpair: -parent is required")
		os.Exit(2)
	}
	if err := run(*parent, *change, *workloads, *claim, *pairs, *seed, *trace, *only); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// cell is one metric of one workload after its pairs: the ratio of the
// medians and the verdict — its text, whether it meets the claim rule, and
// whether it is acceptable for a cell nobody claimed (no worse, or worse by
// less than a bound the parent's spread resolves).
type cell struct {
	ratio      float64
	verdict    string
	better, ok bool
}

func run(parent, change, workloads, claim string, pairs int, seed int64, trace bool, only string) error {
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	decls, traceArg := bf.EndToEnd, "0"
	if trace {
		decls, traceArg = bf.PerLayer, "1"
	}
	var names []string
	if workloads == "all" {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	} else {
		for _, w := range strings.Split(workloads, ",") {
			names = append(names, strings.TrimSpace(w))
		}
	}
	cells := make(map[string]map[string]cell, len(names))
	for _, w := range names {
		c, err := compare(parent, change, w, bf.RunSeconds, decls, traceArg, pairs, seed, only)
		if err != nil {
			return err
		}
		cells[w] = c
	}
	if len(names) > 1 {
		combined(names, decls, cells, claim, only)
	}
	return nil
}

// combined prints every workload's cells side by side and sums them up
// against the claim.
func combined(names []string, decls []metricDecl, cells map[string]map[string]cell, claim, only string) {
	fmt.Printf("\ncombined: ratio of medians (change / parent) and verdict per cell\n%-16s", "workload")
	for _, d := range decls {
		if selected(d.Name, only) {
			fmt.Printf(" %-30s", d.Name+" ("+d.Better+")")
		}
	}
	fmt.Println()
	claimMet, others, offenders := false, 0, []string{}
	for _, w := range names {
		fmt.Printf("%-16s", w)
		for _, d := range decls {
			if !selected(d.Name, only) {
				continue
			}
			c := cells[w][d.Name]
			short := c.verdict
			if i := strings.IndexByte(short, '('); i > 0 {
				short = strings.TrimSpace(short[:i])
			}
			mark := ""
			if w+":"+d.Name == claim {
				mark, claimMet = " <- claimed", c.better
			} else if others++; !c.ok {
				offenders = append(offenders, w+":"+d.Name+" "+c.verdict)
			}
			fmt.Printf(" %-30s", fmt.Sprintf("%.3f %s%s", c.ratio, short, mark))
		}
		fmt.Println()
	}
	if claim != "" {
		fmt.Printf("claimed cell %s: claim rule met = %v\n", claim, claimMet)
	}
	fmt.Printf("every other cell (%d): %d worse beyond its bound, unresolved, or worse with no bound to judge by", others, len(offenders))
	for _, o := range offenders {
		fmt.Printf("\n  %s", o)
	}
	fmt.Println()
}

// compare runs the pairs of one workload, prints its table and returns its
// cells by metric name.
func compare(parent, change, workload string, runSeconds int, decls []metricDecl, traceArg string, pairs int, seed int64, only string) (map[string]cell, error) {
	one := func(dir string) (runOutput, error) {
		cmd := exec.Command("bash", filepath.Join("bench", "run.sh"),
			"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(runSeconds), "--trace", traceArg)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return runOutput{}, fmt.Errorf("%s: %w", dir, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var ro runOutput
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ro); err != nil {
			return runOutput{}, fmt.Errorf("%s: last output line is not the result: %w", dir, err)
		}
		if !ro.Correct {
			return ro, fmt.Errorf("%s: run reported correct=false", dir)
		}
		return ro, nil
	}

	sides := [2]string{parent, change}
	values := [2]map[string][]float64{{}, {}}
	var failed, attempted [2]int
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // alternate which side runs first
			ro, err := one(sides[side])
			if err != nil {
				return nil, err
			}
			failed[side] += ro.Failed
			attempted[side] += ro.Attempted
			for name, m := range ro.Metrics {
				values[side][name] = append(values[side][name], m.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "benchpair: %s pair %d/%d done\n", workload, i+1, pairs)
	}

	fmt.Printf("workload %s, seed %d, %d pairs of %d s runs (parent %s, change %s)\n", workload, seed, pairs, runSeconds, parent, change)
	fmt.Printf("failed operations: parent %d of %d, change %d of %d\n", failed[0], attempted[0], failed[1], attempted[1])
	fmt.Printf("%-36s %-6s %34s %34s %8s %6s  %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "verdict")
	cells := make(map[string]cell, len(decls))
	for _, d := range decls {
		if !selected(d.Name, only) {
			continue
		}
		p, c := values[0][d.Name], values[1][d.Name]
		if len(p) != pairs || len(c) != pairs {
			return nil, fmt.Errorf("metric %s: %d parent and %d change values for %d pairs", d.Name, len(p), len(c), pairs)
		}
		wins, ties := 0, 0
		for i := range p {
			switch {
			case p[i] == c[i]:
				ties++
			case (c[i] > p[i]) == (d.Better == "higher"):
				wins++
			}
		}
		pq, cq := quartiles(p), quartiles(c)
		ratio := 0.0
		if pq[1] != 0 {
			ratio = cq[1] / pq[1]
		}
		v := verdict(d, pq, cq, wins, pairs-ties)
		v.ratio = ratio
		cells[d.Name] = v
		fmt.Printf("%-36s %-6s %34s %34s %8.3f %3d/%-2d  %s\n", d.Name, d.Better, spread(pq), spread(cq), ratio, wins, pairs-ties, v.verdict)
	}
	return cells, nil
}

func selected(name, only string) bool {
	if only == "" {
		return true
	}
	for _, prefix := range strings.Split(only, ",") {
		if strings.HasPrefix(name, strings.TrimSpace(prefix)) {
			return true
		}
	}
	return false
}

// quartiles returns the first quartile, median and third quartile of v by
// linear interpolation between order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func spread(q [3]float64) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}

// verdict applies the claim rule and the regression bound to one metric.
// Layer metrics have no bound: they are only better, worse or the same.
func verdict(d metricDecl, p, c [3]float64, wins, decided int) cell {
	gain := c[1] - p[1]
	if d.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain > 0 && decided > 0 && wins*10 >= decided*9 && gain > p[2]-p[0]:
		return cell{verdict: "better (claim rule met)", better: true, ok: true}
	case gain >= 0:
		return cell{verdict: "no worse", ok: true}
	case d.Bound == 0:
		return cell{verdict: "worse"}
	case -gain <= d.Bound*abs(p[1]):
		if p[2]-p[0] > d.Bound*abs(p[1]) {
			return cell{verdict: "unresolved (parent spread wider than bound)"}
		}
		return cell{verdict: fmt.Sprintf("within bound (%.1f%% of %.1f%%)", 100*-gain/abs(p[1]), 100*d.Bound), ok: true}
	default:
		return cell{verdict: fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.1f%%)", 100*-gain/abs(p[1]), 100*d.Bound)}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
