package main

import "fmt"

// metricDecl declares one reported metric. BENCHMARK.json repeats these
// declarations (spec_test.go holds the two to each other): the file is
// what the driver reads, this table is what the program emits.
type metricDecl struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound: the share of the reference median by which an end-to-end
	// metric may get worse before it counts as a regression. Layer metrics
	// have none.
	bound float64
}

// endToEnd are the metrics a user of the system would see; every workload
// reports every one of them.
//
// ok_frac is the issue's fail_frac turned around (successful ÷ attempted)
// because a regression bound is a share of the reference value and
// fail_frac's reference is 0; its bound of 0.002 is, at a reference of 1,
// the issue's absolute +0.002.
//
// The issue's read_p95_us, write_p95_us and recovery_p50_ms are layer
// metrics here (client.*_p95_us, core.recovery_p50_ms): while a neighbour
// has the host the 95th percentiles run 30–50 % slow whichever way they are
// taken, and recoveries only happen on sim_faultcycle, where the client
// waits them out, so that they show in its ops_per_s. README.md has the
// measurements.
//
// The other bounds are wider than the issue's 10 % default because the
// spreads recorded in spread.json ask for it, and the driver refuses a
// benchmark whose own spread exceeds its bound.
var endToEnd = []metricDecl{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.002},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, named layer.metric. They come
// from three places: counter deltas over an untraced measured phase,
// spans the bench records around calls into each layer in a traced phase,
// and short isolated drives of one layer's public functions.
var perLayer = []metricDecl{
	// Counts, untraced phase.
	{name: "transport.msgs_per_op", unit: "count", better: "lower"},
	{name: "tcpnet.frames_per_op", unit: "count", better: "lower"},
	{name: "tcpnet.bytes_per_op", unit: "B", better: "lower"},
	{name: "tcpnet.flushes_per_op", unit: "count", better: "lower"},
	{name: "tcpnet.frames_per_flush", unit: "count", better: "higher"},
	{name: "tcpnet.flush_stalls", unit: "count", better: "lower"},
	{name: "core.spec_hit_ratio", unit: "frac", better: "higher"},
	{name: "core.heavy_per_kop", unit: "count", better: "lower"},
	{name: "core.read_redraws_per_kop", unit: "count", better: "lower"},
	{name: "core.epoch_redirects_per_kop", unit: "count", better: "lower"},
	{name: "core.epoch_change_p50_us", unit: "us", better: "lower"},
	{name: "core.epoch_changes", unit: "count", better: "lower"},
	{name: "core.epoch_check_failures", unit: "count", better: "lower"},
	{name: "core.recovery_p50_ms", unit: "ms", better: "lower"},
	{name: "core.recoveries", unit: "count", better: "higher"},
	{name: "replica.lock_denied_per_kop", unit: "count", better: "lower"},
	{name: "replica.lock_expired_per_kop", unit: "count", better: "lower"},
	{name: "replica.stale_marked_per_kop", unit: "count", better: "lower"},
	{name: "replica.propagation_rounds_per_kop", unit: "count", better: "lower"},
	{name: "capi.retries_per_kop", unit: "count", better: "lower"},
	{name: "capi.wrong_shard_per_kop", unit: "count", better: "lower"},
	{name: "capi.map_refreshes", unit: "count", better: "lower"},
	{name: "daemon.coords_built", unit: "count", better: "lower"},
	{name: "daemon.coords_evicted", unit: "count", better: "lower"},
	{name: "coterie.strategy_recomputes", unit: "count", better: "lower"},
	{name: "coterie.strategy_entropy_milli", unit: "count", better: "higher"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.cpu_s_per_kop", unit: "s", better: "lower"},
	{name: "client.read_p95_us", unit: "us", better: "lower"},
	{name: "client.write_p95_us", unit: "us", better: "lower"},
	{name: "client.read_p99_us", unit: "us", better: "lower"},
	{name: "client.write_p99_us", unit: "us", better: "lower"},
	{name: "client.write_p999_us", unit: "us", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.mean_ops_per_s", unit: "1/s", better: "higher"},
	{name: "client.retries_per_kop", unit: "count", better: "lower"},
	{name: "client.errors.quorum_unavailable", unit: "count", better: "lower"},
	{name: "client.errors.conflict", unit: "count", better: "lower"},
	{name: "client.errors.timed_out", unit: "count", better: "lower"},
	{name: "client.errors.other", unit: "count", better: "lower"},
	{name: "onecopy.events_checked", unit: "count", better: "higher"},
	{name: "onecopy.check_ms", unit: "ms", better: "lower"},

	// Spans, traced phase. Means, so that they add up to trace.*_mean_us.
	{name: "core.read_self_us", unit: "us", better: "lower"},
	{name: "core.write_self_us", unit: "us", better: "lower"},
	{name: "transport.read_self_us", unit: "us", better: "lower"},
	{name: "transport.write_self_us", unit: "us", better: "lower"},
	{name: "replica.read_self_us", unit: "us", better: "lower"},
	{name: "replica.write_self_us", unit: "us", better: "lower"},
	{name: "replica.handler_calls_per_read", unit: "count", better: "lower"},
	{name: "replica.handler_calls_per_write", unit: "count", better: "lower"},
	{name: "capi.read_self_us", unit: "us", better: "lower"},
	{name: "capi.write_self_us", unit: "us", better: "lower"},
	{name: "tcpnet.client_call_read_us", unit: "us", better: "lower"},
	{name: "tcpnet.client_call_write_us", unit: "us", better: "lower"},
	{name: "trace.read_mean_us", unit: "us", better: "lower"},
	{name: "trace.write_mean_us", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},

	// Isolated drives.
	{name: "wire.encode_lockprepare_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_lockprepare_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_snapreply_1k_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_snapreply_1k_ns", unit: "ns", better: "lower"},
	{name: "wire.lockprepare_bytes", unit: "B", better: "lower"},
	{name: "tcpnet.echo_rtt_us", unit: "us", better: "lower"},
	{name: "tcpnet.echo_inflight64_kops", unit: "1/ms", better: "higher"},
	{name: "transport.sim_call_ns", unit: "ns", better: "lower"},
	{name: "transport.sim_multicast5_ns", unit: "ns", better: "lower"},
	{name: "coterie.compile_grid9_ns", unit: "ns", better: "lower"},
	{name: "coterie.pick_read_grid9_ns", unit: "ns", better: "lower"},
	{name: "coterie.pick_write_grid9_ns", unit: "ns", better: "lower"},
	{name: "coterie.alias_pick_ns", unit: "ns", better: "lower"},
	{name: "coterie.optimize_grid9_us", unit: "us", better: "lower"},
	{name: "replica.lockprepare_commit_ns", unit: "ns", better: "lower"},
	{name: "replica.readsnap_ns", unit: "ns", better: "lower"},
	{name: "core.single_node_read_us", unit: "us", better: "lower"},
	{name: "core.single_node_write_us", unit: "us", better: "lower"},
	{name: "placement.shard_of_ns", unit: "ns", better: "lower"},
	{name: "placement.members_of_ns", unit: "ns", better: "lower"},
	{name: "onecopy.check_100k_ms", unit: "ms", better: "lower"},
	{name: "workload.zipf_next_ns", unit: "ns", better: "lower"},
	{name: "workload.gen_ns_per_op", unit: "ns", better: "lower"},
	{name: "markov.table1_ms", unit: "ms", better: "lower"},
}

// endToEndMetrics reads the end-to-end values off a run.
func endToEndMetrics(r runResult) map[string]float64 {
	return map[string]float64{
		"ops_per_s":    r.sum.opsPerSec,
		"read_p50_us":  r.sum.readP50,
		"write_p50_us": r.sum.writeP50,
		"ok_frac":      r.stats.okFrac(),
		"live_heap_mb": r.liveHeapMB,
		"setup_s":      r.setupS,
	}
}

// traceMetrics turns a traced run's layer times into per-operation means.
// On the sim workloads depth 0/1/2 are core/transport/replica; on
// tcp_sharded depth 0/1 are capi and everything behind the client socket.
// The layers a workload does not have report 0.
func traceMetrics(w workloadDef, traced runResult, untracedOpsPerSec float64) map[string]float64 {
	mean := func(d [2]float64, k int) float64 {
		if traced.trace.ops[k] == 0 {
			return 0
		}
		return d[k] / float64(traced.trace.ops[k])
	}
	var root, handlers [2]float64
	var layer [numDepths][2]float64
	for k := 0; k < 2; k++ {
		root[k] = us(traced.trace.root[k])
		handlers[k] = float64(traced.trace.handlers[k])
		for d := 0; d < numDepths; d++ {
			layer[d][k] = us(traced.trace.layer[k][d])
		}
	}
	m := map[string]float64{
		"trace.read_mean_us":  mean(root, 0),
		"trace.write_mean_us": mean(root, 1),
		"trace.overhead_frac": 0,
	}
	if untracedOpsPerSec > 0 {
		m["trace.overhead_frac"] = 1 - traced.sum.meanOpsPerSec/untracedOpsPerSec
	}
	names := [][numDepths]string{
		{"core.%s_self_us", "transport.%s_self_us", "replica.%s_self_us"},
		{"capi.%s_self_us", "tcpnet.client_call_%s_us", ""},
	}
	mine := 0
	if w.name == "tcp_sharded" {
		mine = 1
	}
	for set, layers := range names {
		for d, pattern := range layers {
			if pattern == "" {
				continue
			}
			for k, kind := range []string{"read", "write"} {
				v := 0.0
				if set == mine {
					v = mean(layer[d], k)
				}
				m[fmt.Sprintf(pattern, kind)] = v
			}
		}
	}
	m["replica.handler_calls_per_read"] = mean(handlers, 0)
	m["replica.handler_calls_per_write"] = mean(handlers, 1)
	return m
}
