// Command cotop is the cluster-wide observability aggregator: it scrapes
// every daemon's admin endpoint (coteried -admin), merges the per-node
// registries into one cluster view, and can reassemble the cross-node
// timeline of a single distributed trace.
//
//	cotop -cluster 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102
//	cotop -cluster ... -trace 4f2a9c01d3e85b77      # one trace, all nodes
//	cotop -cluster ... -traces                      # list known trace IDs
//	cotop -cluster ... -json                        # merged snapshot, JSON
//
// The default view is one screen: cluster-merged counters and gauges,
// the lock-conflict line (refused and rerun beside denied and expired),
// the capacity line of the weighted strategies (predicted capacity against
// the solve's certified bound; per node declared, used by the last solve,
// predicted utilisation), the memory line (replicas held, their payload, the
// daemons' heaps as a multiple of it), the counter/gauge vectors
// (quorum pick counts by size, load-EWMA cells, per-shard totals), the
// latency histograms' tails, per-shard route latency, and hedge attribution.
// Merging rules live in internal/capi (ScrapeCluster); cotop is a thin
// renderer over them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"coterie/internal/capi"
)

func main() {
	var (
		cluster = flag.String("cluster", "", "comma-separated admin addresses (host:port,host:port,...)")
		trace   = flag.String("trace", "", "print the cross-node timeline of this trace ID (hex)")
		traces  = flag.Bool("traces", false, "list distinct trace IDs seen across the cluster")
		asJSON  = flag.Bool("json", false, "emit the merged cluster snapshot as JSON")
		timeout = flag.Duration("timeout", 5*time.Second, "total scrape timeout")
	)
	flag.Parse()
	if *cluster == "" {
		fmt.Fprintln(os.Stderr, "cotop: -cluster is required")
		os.Exit(2)
	}
	addrs := strings.Split(*cluster, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cs := capi.ScrapeCluster(ctx, nil, addrs)
	for _, err := range cs.Errs {
		fmt.Fprintln(os.Stderr, "cotop: scrape:", err)
	}
	if len(cs.Nodes) == 0 {
		fmt.Fprintln(os.Stderr, "cotop: no nodes reachable")
		os.Exit(1)
	}

	switch {
	case *trace != "":
		if err := printTimeline(cs, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "cotop:", err)
			os.Exit(1)
		}
	case *traces:
		for _, id := range cs.TraceIDs() {
			fmt.Println(id)
		}
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(clusterJSON(cs)); err != nil {
			fmt.Fprintln(os.Stderr, "cotop:", err)
			os.Exit(1)
		}
	default:
		printSummary(os.Stdout, cs)
	}
}

// printTimeline renders one distributed trace as a cross-node timeline:
// the coordinator span first, then every replica's server span, each with
// its flight events indented beneath it.
func printTimeline(cs *capi.ClusterSnapshot, id string) error {
	spans, err := cs.Timeline(id)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans for trace %s on %d reachable nodes", id, len(cs.Nodes))
	}
	fmt.Printf("trace %s: %d spans across %d nodes\n", spans[0].TraceID, len(spans), countNodes(spans))
	origin := spans[0].Start
	for _, s := range spans {
		role := "coordinator"
		if s.Kind == "serve" {
			role = "replica"
		}
		fmt.Printf("  +%-9s n%d %-11s %-6s item=%s outcome=%s elapsed=%s [%s]\n",
			s.Start.Sub(origin).Round(time.Microsecond), s.Node, role, s.Kind,
			s.Item, s.Outcome, time.Duration(s.ElapsedNS).Round(time.Microsecond), s.ScrapedFrom)
		for _, e := range s.Events {
			line := e.Kind
			if e.Phase != "" {
				line += " " + e.Phase
			}
			fmt.Printf("      +%-9s %-16s dur=%s n=%d\n",
				time.Duration(e.WhenNS).Round(time.Microsecond), line,
				time.Duration(e.DurNS).Round(time.Microsecond), e.N)
		}
	}
	return nil
}

func countNodes(spans []capi.TraceSpan) int {
	seen := map[int]bool{}
	for _, s := range spans {
		seen[s.Node] = true
	}
	return len(seen)
}

// printSummary is the one-screen cluster view. It takes the writer so the
// merge round-trip test can capture it.
func printSummary(w io.Writer, cs *capi.ClusterSnapshot) {
	fmt.Fprintf(w, "cluster: %d/%d nodes reachable\n", len(cs.Nodes), len(cs.Nodes)+len(cs.Errs))
	for _, n := range cs.Nodes {
		fmt.Fprintf(w, "  %s: %d traces, %d counters\n", n.Addr, len(n.Traces), len(n.Counters))
	}

	names := make([]string, 0, len(cs.Counters))
	for name, v := range cs.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "counters (cluster sum):")
	for _, name := range names {
		fmt.Fprintf(w, "  %-44s %d\n", name, cs.Counters[name])
	}

	// Lock contention on one line, zeros included: waited requests queued
	// behind another operation (on the sim transport, the legs that left
	// their sender's goroutine), refused rounds were untied by the replicas'
	// conflict order within a round trip (and rerun by their coordinators),
	// denied and expired ones by a timeout — those two, and an unanswerable
	// termination query, should stay at zero.
	fmt.Fprintf(w, "lock conflicts: waited=%d refused=%d rerun=%d denied=%d expired=%d decision-unknown=%d\n",
		cs.Counters["replica_lock_waited_total"], cs.Counters["replica_lock_refused_total"], cs.Counters["core_lock_retry_total"],
		cs.Counters["replica_lock_denied_total"], cs.Counters["replica_lock_expired_total"],
		cs.Counters["replica_decision_unknown_total"])

	// Write-through on one line, next to the speculation split it explains:
	// every push that was sent and not applied left a bystander behind, and
	// a bystander behind turns the next write that draws it into a miss. A
	// gap is a push lost or refused earlier; busy means another write held
	// the replica's lock; stale and recovering replicas are already owed
	// propagation; skipped ones were left out on purpose by the capacity
	// rule.
	fmt.Fprintf(w, "write-through: sent=%d applied=%d refused(gap)=%d refused(busy)=%d refused(stale)=%d refused(recovering)=%d skipped=%d | spec hit=%d miss=%d\n",
		cs.Counters["core_push_sent_total"], cs.Counters["replica_push_applied_total"],
		cs.Counters["replica_push_refused_gap_total"], cs.Counters["replica_push_refused_busy_total"],
		cs.Counters["replica_push_refused_stale_total"],
		cs.Counters["replica_push_refused_recovering_total"], cs.Counters["core_push_skipped_total"],
		cs.Counters["core_spec_prepare_hit_total"], cs.Counters["core_spec_prepare_miss_total"])

	// Mean members per round sent to a drawn quorum, reads then writes
	// (vector cells 0 and 1): the locks and frames an operation pays for.
	// A rule's minimal quorums set the floor — 2 and 2 on a three-member
	// grid, 3 and 5 on a 3×3 — and a mean above it is a dominated quorum.
	fmt.Fprintf(w, "quorum size: read=%s write=%s (mean members per round)\n",
		meanCell(cs.Vecs["core_quorum_members_total"], cs.Vecs["core_quorum_rounds_total"], 0),
		meanCell(cs.Vecs["core_quorum_members_total"], cs.Vecs["core_quorum_rounds_total"], 1))

	// What the weighted strategies solve with, as means over the daemons
	// publishing it: every daemon times its peers from where it sits.
	if line := capacityLine(cs.Nodes); line != "" {
		fmt.Fprintln(w, "capacity:", line)
	}

	// What the cluster holds against what holding it costs: replicas, the sum
	// of their values, and the daemons' heaps as sampled by this scrape — the
	// ratio is bytes of process per byte of replicated payload.
	if payload := float64(cs.Gauges["replica_payload_bytes"]); payload > 0 {
		heap := float64(cs.Gauges["process_heap_bytes"])
		fmt.Fprintf(w, "memory: items=%d payload=%.1f MB heap=%.1f MB (%.1f x)\n",
			cs.Gauges["replica_items"], payload/(1<<20), heap/(1<<20), heap/payload)
	}

	gnames := make([]string, 0, len(cs.Gauges))
	for name, v := range cs.Gauges {
		if v != 0 {
			gnames = append(gnames, name)
		}
	}
	if len(gnames) > 0 {
		sort.Strings(gnames)
		fmt.Fprintln(w, "gauges (cluster sum):")
		for _, name := range gnames {
			fmt.Fprintf(w, "  %-44s %d\n", name, cs.Gauges[name])
		}
	}

	// Vector metrics — per-size quorum pick counts, per-node
	// capacities and load estimates from the weighted strategies, per-shard
	// totals — render as index:value pairs over the cluster-summed cells.
	vnames := make([]string, 0, len(cs.Vecs))
	for name, vals := range cs.Vecs {
		if s := fmtVec(vals); s != "" {
			vnames = append(vnames, name)
		}
	}
	if len(vnames) > 0 {
		sort.Strings(vnames)
		fmt.Fprintln(w, "counter vectors (cluster sum, index:value):")
		for _, name := range vnames {
			fmt.Fprintf(w, "  %-44s %s\n", name, fmtVec(cs.Vecs[name]))
		}
	}
	gvnames := make([]string, 0, len(cs.GaugeVecs))
	for name, vals := range cs.GaugeVecs {
		if s := fmtVec(vals); s != "" {
			gvnames = append(gvnames, name)
		}
	}
	if len(gvnames) > 0 {
		sort.Strings(gvnames)
		fmt.Fprintln(w, "gauge vectors (cluster sum, index:value):")
		for _, name := range gvnames {
			fmt.Fprintf(w, "  %-44s %s\n", name, fmtVec(cs.GaugeVecs[name]))
		}
	}

	hnames := make([]string, 0, len(cs.Hists))
	for name := range cs.Hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	fmt.Fprintln(w, "latency (cluster merge):")
	for _, name := range hnames {
		h := cs.Hists[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-44s n=%-8d p50=%-10s p99=%-10s p999=%s\n", name, h.Count,
			time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.99)), time.Duration(h.Quantile(0.999)))
	}
	for name, hs := range cs.HistVecs {
		for i, h := range hs {
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s{index=%d}%*s n=%-8d p50=%-10s p99=%-10s p999=%s\n",
				name, i, max(1, 34-len(name)), "", h.Count,
				time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.99)), time.Duration(h.Quantile(0.999)))
		}
	}

	if ids := cs.TraceIDs(); len(ids) > 0 {
		n := len(ids)
		if n > 8 {
			n = 8
		}
		fmt.Fprintf(w, "recent traces (%d known, -trace <id> for a timeline):\n", len(ids))
		for _, id := range ids[:n] {
			fmt.Fprintf(w, "  %s\n", id)
		}
	}
}

// fmtVec renders a vector's non-zero cells as space-separated index:value
// pairs ("" when every cell is zero, so all-zero vectors stay off the
// screen like zero counters do).
func fmtVec[T uint64 | int64](vals []T) string {
	var b strings.Builder
	for i, v := range vals {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", i, v)
	}
	return b.String()
}

// capacityLine renders "n4 declared 0.100 used 0.004 util pred 0.310" for
// every node some daemon declared a capacity for ("" without a weighted
// strategy); a value no daemon has published yet is "-". Before them, once a
// solve has landed: the capacity it predicts, the most its certificate allows
// any distribution, and the gap between the two (at most the solver's 1 %).
func capacityLine(nodes []capi.NodeSnapshot) string {
	var parts []string
	var pred, bound, solved float64
	for _, nd := range nodes {
		if b := nd.Gauges["core_strategy_capacity_bound_milli"]; b > 0 {
			pred, bound, solved = pred+float64(nd.Gauges["core_strategy_capacity_milli"]), bound+float64(b), solved+1
		}
	}
	if pred > 0 {
		parts = append(parts, fmt.Sprintf("pred %.3f of at most %.3f (gap %.1f %%)", pred/solved/1000, bound/solved/1000, 100*(bound/pred-1)))
	}
	for i := 0; ; i++ {
		cell := [3]string{"-", "-", "-"}
		for k, name := range [3]string{"core_node_declared_capacity_milli", "core_node_capacity_milli", "core_node_utilization_milli"} {
			var sum, n float64
			for _, nd := range nodes {
				if vals := nd.GaugeVecs[name]; i < len(vals) {
					sum, n = sum+float64(vals[i]), n+1
				}
			}
			if n > 0 {
				cell[k] = fmt.Sprintf("%.3f", sum/n/1000)
			}
		}
		if cell[0] == "-" {
			return strings.Join(parts, " | ")
		}
		parts = append(parts, fmt.Sprintf("n%d declared %s used %s util pred %s", i, cell[0], cell[1], cell[2]))
	}
}

// meanCell renders sums[i]/counts[i] to two decimals, or "-" when the cell
// is missing or nothing was counted.
func meanCell(sums, counts []uint64, i int) string {
	if i >= len(sums) || i >= len(counts) || counts[i] == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(sums[i])/float64(counts[i]))
}

// clusterJSON shapes the merged snapshot for -json output.
func clusterJSON(cs *capi.ClusterSnapshot) any {
	type node struct {
		Addr   string `json:"addr"`
		Traces int    `json:"traces"`
	}
	nodes := make([]node, 0, len(cs.Nodes))
	for _, n := range cs.Nodes {
		nodes = append(nodes, node{Addr: n.Addr, Traces: len(n.Traces)})
	}
	return map[string]any{
		"nodes":         nodes,
		"counters":      cs.Counters,
		"gauges":        cs.Gauges,
		"vectors":       cs.Vecs,
		"gauge_vectors": cs.GaugeVecs,
		"trace_ids":     cs.TraceIDs(),
	}
}
