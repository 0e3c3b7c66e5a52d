package main

import (
	"runtime"
	"syscall"
	"time"

	"coterie/internal/obs"
)

// counters is a snapshot of cumulative layer counters by registry name.
// A workload's clusters may own several registries (one per daemon, one
// for the client transport); they are summed, because the bench reports
// per-operation costs of the whole system.
type counters map[string]float64

func (c counters) addRegistry(r *obs.Registry) {
	snap := r.Snapshot()
	for _, v := range snap.Counters {
		c[v.Name] += float64(v.Value)
	}
	for _, v := range snap.Gauges {
		c[v.Name] += float64(v.Value)
	}
	for _, v := range snap.GaugeVecs {
		if v.Name == "core_strategy_entropy_milli" && len(v.Values) > 0 {
			c["core_strategy_read_entropy_milli"] = float64(v.Values[0])
		}
	}
}

// procSample is the Go runtime's and the OS's view of the process.
type procSample struct {
	mallocs uint64
	pauseNs uint64
	cpu     time.Duration // user + system
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{mallocs: m.Mallocs, pauseNs: m.PauseTotalNs, cpu: cpu}
}

// liveHeapMB forces a collection and reads what survived it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ratio is num ÷ den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// countMetrics derives the count-based layer metrics of one measured
// phase: counter deltas over the phase divided by its successful
// operations (per op) or thousands of them (per kop).
func countMetrics(before, after counters, p0, p1 procSample, st phaseStats) map[string]float64 {
	ops := float64(st.ok())
	kops := ops / 1000
	d := func(name string) float64 { return after[name] - before[name] }
	m := map[string]float64{
		"transport.msgs_per_op": ratio(d("transport_messages"), ops),

		"tcpnet.frames_per_op":    ratio(d("tcp_frames_sent_total"), ops),
		"tcpnet.bytes_per_op":     ratio(d("tcp_bytes_sent_total"), ops),
		"tcpnet.flushes_per_op":   ratio(d("tcp_flushes_total"), ops),
		"tcpnet.frames_per_flush": ratio(d("tcp_frames_sent_total"), d("tcp_flushes_total")),
		"tcpnet.flush_stalls":     d("tcp_flush_stall_total"),

		"core.spec_hit_ratio":          ratio(d("core_spec_prepare_hit_total"), d("core_spec_prepare_hit_total")+d("core_spec_prepare_miss_total")),
		"core.heavy_per_kop":           ratio(d("core_heavy_procedures_total"), kops),
		"core.read_redraws_per_kop":    ratio(d("core_read_redraws_total"), kops),
		"core.epoch_redirects_per_kop": ratio(d("core_epoch_redirects_total"), kops),

		"replica.lock_denied_per_kop":        ratio(d("replica_lock_denied_total"), kops),
		"replica.lock_expired_per_kop":       ratio(d("replica_lock_expired_total"), kops),
		"replica.stale_marked_per_kop":       ratio(d("replica_stale_marked_total"), kops),
		"replica.propagation_rounds_per_kop": ratio(d("replica_propagation_rounds_total"), kops),

		"capi.retries_per_kop":     ratio(d("capi_retry_total"), kops),
		"capi.wrong_shard_per_kop": ratio(d("capi_wrong_shard_total"), kops),
		"capi.map_refreshes":       d("capi_map_refresh_total"),
		"daemon.coords_built":      d("coteried_coord_built_total"),
		"daemon.coords_evicted":    d("coteried_coord_evicted_total"),

		"coterie.strategy_recomputes":    d("core_strategy_recomputes_total"),
		"coterie.strategy_entropy_milli": after["core_strategy_read_entropy_milli"],

		"proc.allocs_per_op": ratio(float64(p1.mallocs-p0.mallocs), ops),
		"proc.gc_pause_ms":   float64(p1.pauseNs-p0.pauseNs) / 1e6,
		"proc.cpu_s_per_kop": ratio((p1.cpu - p0.cpu).Seconds(), kops),

		"client.retries_per_kop": ratio(float64(st.retries), kops),
		"client.samples":         ops,
		"client.mean_ops_per_s":  st.meanOpsPerSec(),
		"client.read_p95_us":     us(quantile(st.readLat, 0.95)),
		"client.write_p95_us":    us(quantile(st.writeLat, 0.95)),
		"client.read_p99_us":     us(quantile(st.readLat, 0.99)),
		"client.write_p99_us":    us(quantile(st.writeLat, 0.99)),
		"client.write_p999_us":   us(quantile(st.writeLat, 0.999)),
	}
	for k, name := range errKindNames {
		m["client.errors."+name] = float64(st.errs[k])
	}
	return m
}
