package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"coterie/internal/core"
)

func TestQuantileNearestRank(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i+1) * time.Microsecond
	}
	for _, c := range []struct {
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{hundred, 0.50, 50 * time.Microsecond},
		{hundred, 0.95, 95 * time.Microsecond},
		{hundred, 0.99, 99 * time.Microsecond},
		{hundred, 0.999, 100 * time.Microsecond},
		{hundred, 0, time.Microsecond},
		{hundred[:1], 0.95, time.Microsecond},
		{hundred[:2], 0.50, time.Microsecond},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.samples, c.q); got != c.want {
			t.Errorf("quantile(%d samples, %g) = %v, want %v", len(c.samples), c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}, {nil, 0}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestOutcomeAccounting: a failed operation is attempted, counted failed,
// and contributes no latency sample; sample counts are exactly the
// successes, per kind, across clients.
func TestOutcomeAccounting(t *testing.T) {
	began := time.Now()
	clients := []clientStats{newClientStats(began, 2*time.Second), newClientStats(began, 2*time.Second)}
	for i := 0; i < 90; i++ {
		clients[i%2].record(i%3 == 0, time.Duration(i+1)*time.Microsecond, nil, began)
	}
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		clients[i%2].record(i%2 == 0, time.Hour, boom, began)
	}
	p := mergeStats(2*time.Second, clients)
	if p.attempted != 100 || p.failed != 10 {
		t.Fatalf("attempted %d failed %d, want 100 and 10", p.attempted, p.failed)
	}
	if len(p.readLat) != 30 || len(p.writeLat) != 60 || p.ok() != 90 {
		t.Fatalf("samples: %d reads %d writes %d ok, want 30, 60, 90", len(p.readLat), len(p.writeLat), p.ok())
	}
	if got := p.okFrac(); got != 0.9 {
		t.Errorf("okFrac = %v, want 0.9", got)
	}
	if got := p.meanOpsPerSec(); got != 45 {
		t.Errorf("meanOpsPerSec = %v, want 45 (failures do not count)", got)
	}
	if p.firstErr != boom {
		t.Errorf("firstErr = %v, want the first failure", p.firstErr)
	}
	for i := 1; i < len(p.writeLat); i++ {
		if p.writeLat[i-1] > p.writeLat[i] {
			t.Fatal("merged latencies are not sorted")
		}
	}
	if max := p.writeLat[len(p.writeLat)-1]; max >= time.Hour {
		t.Errorf("a failed operation left a latency sample (%v)", max)
	}
}

// TestQuietWindows: latency percentiles are taken per window and
// throughput per second, and the quiet end of each is reported, so a
// neighbour that slows most of a phase down does not move them.
func TestQuietWindows(t *testing.T) {
	began := time.Now()
	const seconds = 4
	perSec := int(time.Second / windowLen)
	phase := seconds * time.Second
	clients := []clientStats{newClientStats(began, phase), newClientStats(began, phase)}
	if len(clients[0].windows) != seconds*perSec || clients[0].slice != windowLen {
		t.Fatalf("%d windows of %v, want %d of %v", len(clients[0].windows), clients[0].slice, seconds*perSec, windowLen)
	}
	// The first second runs undisturbed: 100 reads at 10 µs per window.
	// In the other three a neighbour takes the processor: 50 reads at 20 µs.
	for w := 0; w < seconds*perSec; w++ {
		done := began.Add(time.Duration(w)*windowLen + time.Millisecond)
		n, lat := 50, 20*time.Microsecond
		if w < perSec {
			n, lat = 100, 10*time.Microsecond
		}
		for i := 0; i < n; i++ {
			clients[i%2].record(true, lat, nil, done)
		}
	}
	// Whatever completes after the deadline belongs to the last window.
	clients[0].record(false, 30*time.Microsecond, nil, began.Add(phase+time.Second))
	p := mergeStats(phase, clients)
	if len(p.opsPerSecW) != seconds || len(p.readP50W) != seconds*perSec {
		t.Fatalf("%d rates and %d read percentiles, want one per second (%d) and one per window (%d)", len(p.opsPerSecW), len(p.readP50W), seconds, seconds*perSec)
	}
	sum := summarize(p)
	if want := float64(100 * perSec); sum.opsPerSec != want || sum.readP50 != 10 {
		t.Errorf("quiet end: %v ops/s, p50 %v; want %v, 10", sum.opsPerSec, sum.readP50, want)
	}
	if len(p.writeP50W) != 1 || sum.writeP50 != 30 {
		t.Errorf("write windows %v: a window without writes must not report a percentile", p.writeP50W)
	}
	if reads := 100*perSec + 50*perSec*(seconds-1); sum.reads != reads || sum.writes != 1 {
		t.Errorf("samples %d reads %d writes, want %d and 1", sum.reads, sum.writes, reads)
	}
	if got := us(quantile(p.readLat, 0.99)); got != 20 {
		t.Errorf("whole-phase p99 = %v us, want the slow windows' 20", got)
	}
	// A phase shorter than a second is one span.
	short := []clientStats{newClientStats(began, 3*windowLen)}
	for i := 0; i < 30; i++ {
		short[0].record(true, time.Microsecond, nil, began)
	}
	if p := mergeStats(3*windowLen, short); len(p.opsPerSecW) != 1 || p.opsPerSecW[0] != 30/(3*windowLen).Seconds() {
		t.Errorf("short phase rates %v, want one of %v", p.opsPerSecW, 30/(3*windowLen).Seconds())
	}
}

func TestQuietest(t *testing.T) {
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64((i*17)%40 + 1) // 1..40, shuffled
	}
	for _, c := range []struct {
		in     []float64
		share  float64
		higher bool
		want   float64
	}{
		{forty, 0.05, false, 2}, {forty, 0.05, true, 39}, {forty, 0.25, false, 10}, {forty, 0.25, true, 31},
		{forty[:5], 0.05, false, 1}, // fewer than twenty values: the best one
		{forty[:1], 0.25, true, 1}, {nil, 0.05, false, 0},
	} {
		if got := quietest(c.in, c.share, c.higher); got != c.want {
			t.Errorf("quietest(%d values, %v, higher=%v) = %v, want %v", len(c.in), c.share, c.higher, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		err  error
		want errKind
	}{
		{fmt.Errorf("round: %w", context.DeadlineExceeded), errTimedOut},
		{fmt.Errorf("%w: lost the race", core.ErrConflict), errConflict},
		{fmt.Errorf("%w: no quorum", core.ErrUnavailable), errUnavailable},
		{errors.New("socket closed"), errOther},
		{statusErr(1, "x"), errUnavailable}, // capi.StatusUnavailable
		{statusErr(2, "x"), errConflict},    // capi.StatusConflict
		{statusErr(3, "x"), errOther},       // capi.StatusError
	} {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, errKindNames[got], errKindNames[c.want])
		}
	}
	if statusErr(0, "") != nil {
		t.Error("StatusOK must map to no error")
	}
}

// TestCountMetricsExplainFailures: the per-kop counts divide by successful
// operations, and the error kinds are reported by name.
func TestCountMetricsExplainFailures(t *testing.T) {
	st := phaseStats{attempted: 2010, failed: 10, retries: 4}
	st.readLat = make([]time.Duration, 1000)
	st.writeLat = make([]time.Duration, 1000)
	st.errs[errConflict], st.errs[errTimedOut] = 7, 3
	before := counters{"replica_lock_expired_total": 5, "core_spec_prepare_hit_total": 10, "core_spec_prepare_miss_total": 10}
	after := counters{"replica_lock_expired_total": 25, "core_spec_prepare_hit_total": 40, "core_spec_prepare_miss_total": 20, "transport_messages": 24000}
	m := countMetrics(before, after, procSample{}, procSample{mallocs: 200000, cpu: time.Second}, st)
	for name, want := range map[string]float64{
		"replica.lock_expired_per_kop": 10,
		"core.spec_hit_ratio":          0.75,
		"transport.msgs_per_op":        12,
		"client.retries_per_kop":       2,
		"client.errors.conflict":       7,
		"client.errors.timed_out":      3,
		"client.errors.other":          0,
		"proc.allocs_per_op":           100,
		"proc.cpu_s_per_kop":           0.5,
		"client.samples":               2000,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
