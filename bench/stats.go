package main

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"coterie/internal/core"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least a share q of the
// samples at or below it. Nearest rank always returns a value that was
// observed, which is what a latency percentile should be.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of a float slice (mean of the middle two for even lengths); the
// input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quietest returns, of one value per window (or per repetition), the one
// that lies share of the way in from the good end, by the nearest-rank
// rule: a low quantile of times, a high one of rates. The host is a few
// cores of a shared machine, and what its neighbours do can only slow a
// window down: a fixed spin loop timed there for four minutes never took
// less than 71 ms but averaged anything from 74 to 109 ms over ten seconds.
// The median window follows the neighbours; the quiet end is what the
// program does when it has the processor, and it still moves when the code
// gets slower, because that slows every window.
func quietest(xs []float64, share float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := max(int(math.Ceil(share*float64(len(s)))), 1)
	if higherIsBetter {
		return s[len(s)-rank]
	}
	return s[rank-1]
}

// The quiet end of the repeated measurements. The median latencies are
// taken per windowLen and the window 5 % in from the fastest is reported
// (the 9th of 180); so are the set-up times. The throughput is taken per
// second — long enough to hold a fair share of the lock stalls that decide
// it on sim_hot, which the fastest tenths of a second have none of — and
// the fifth best second of eighteen is reported.
const (
	quietShare    = 0.05
	quietRateSpan = time.Second
	quietRate     = 0.25
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// errKind classifies one failed attempt. The names are the suffixes of the
// client.errors.* layer metrics.
type errKind int

const (
	errUnavailable errKind = iota
	errConflict
	errTimedOut
	errOther
	numErrKinds
)

var errKindNames = [numErrKinds]string{"quorum_unavailable", "conflict", "timed_out", "other"}

func classify(err error) errKind {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errTimedOut
	case errors.Is(err, core.ErrConflict):
		return errConflict
	case errors.Is(err, core.ErrUnavailable):
		return errUnavailable
	default:
		return errOther
	}
}

// window holds the latency samples of the operations that completed in
// one slice of a phase.
type window struct {
	readLat, writeLat []time.Duration
}

// clientStats is one client goroutine's private tally of a phase: nothing
// in the measurement loop is shared between clients.
type clientStats struct {
	began     time.Time
	slice     time.Duration // length of one window
	windows   []window
	attempted int              // logical operations issued
	failed    int              // logical operations that ended in an error
	retries   int              // extra attempts made by the bench's own sim client
	errs      [numErrKinds]int // failed attempts by kind
	// recoveries are the restart-to-current times of the faults this
	// client injected (sim_faultcycle only).
	recoveries []time.Duration
	firstErr   error // the first failed operation's error, for the report
}

// windowLen is the length of the windows a phase is cut into: short
// enough that some fall between a neighbour's bursts, long enough for a
// median (the writes of sim_slow are the fewest: 160 to a window).
const windowLen = 100 * time.Millisecond

// newClientStats cuts a phase of length d into windows of about windowLen.
func newClientStats(began time.Time, d time.Duration) clientStats {
	n := max(int(d/windowLen), 1)
	return clientStats{began: began, slice: d / time.Duration(n), windows: make([]window, n)}
}

// record files one finished operation under the window it completed in
// (the last window also takes whatever finishes after the deadline).
func (s *clientStats) record(isRead bool, lat time.Duration, err error, done time.Time) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	w := &s.windows[min(int(done.Sub(s.began)/s.slice), len(s.windows)-1)]
	if isRead {
		w.readLat = append(w.readLat, lat)
	} else {
		w.writeLat = append(w.writeLat, lat)
	}
}

// phaseStats is the merged outcome of one measured phase. The end-to-end
// throughput and median latencies are taken per second, or per window,
// and the quiet end of those is reported (quietest): a collector pause or
// a burst of a neighbour lands in some windows and does not move the
// result.
type phaseStats struct {
	elapsed    time.Duration
	attempted  int
	failed     int
	retries    int
	readLat    []time.Duration // all windows, sorted
	writeLat   []time.Duration // all windows, sorted
	errs       [numErrKinds]int
	recoveries []time.Duration
	firstErr   error

	// One rate per quietRateSpan; one median per window, none of a kind
	// the window has no samples of.
	opsPerSecW          []float64
	readP50W, writeP50W []float64
}

func mergeStats(elapsed time.Duration, clients []clientStats) phaseStats {
	p := phaseStats{elapsed: elapsed}
	for i := range clients {
		c := &clients[i]
		p.attempted += c.attempted
		p.failed += c.failed
		p.retries += c.retries
		p.recoveries = append(p.recoveries, c.recoveries...)
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
		for k, n := range c.errs {
			p.errs[k] += n
		}
	}
	if len(clients) == 0 {
		return p
	}
	windows := len(clients[0].windows)
	done := make([]int, windows) // successful operations per window
	for w := 0; w < windows; w++ {
		var reads, writes []time.Duration
		for i := range clients {
			reads = append(reads, clients[i].windows[w].readLat...)
			writes = append(writes, clients[i].windows[w].writeLat...)
		}
		slices.Sort(reads)
		slices.Sort(writes)
		done[w] = len(reads) + len(writes)
		if len(reads) > 0 {
			p.readP50W = append(p.readP50W, us(quantile(reads, 0.50)))
		}
		if len(writes) > 0 {
			p.writeP50W = append(p.writeP50W, us(quantile(writes, 0.50)))
		}
		p.readLat = append(p.readLat, reads...)
		p.writeLat = append(p.writeLat, writes...)
	}
	slices.Sort(p.readLat)
	slices.Sort(p.writeLat)
	// The windows are dealt into spans of about quietRateSpan, as evenly
	// as they go.
	spans := max(int(time.Duration(windows)*clients[0].slice/quietRateSpan), 1)
	for i := 0; i < spans; i++ {
		from, to := i*windows/spans, (i+1)*windows/spans
		n := 0
		for _, d := range done[from:to] {
			n += d
		}
		p.opsPerSecW = append(p.opsPerSecW, float64(n)/(time.Duration(to-from)*clients[0].slice).Seconds())
	}
	return p
}

// ok is the number of successful operations: exactly those with a latency
// sample.
func (p phaseStats) ok() int { return len(p.readLat) + len(p.writeLat) }

// meanOpsPerSec is successful operations ÷ elapsed time over the whole
// phase; the per-operation layer counts divide by the same operations.
func (p phaseStats) meanOpsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ok()) / p.elapsed.Seconds()
}

// okFrac is successful ÷ attempted: 1 − the issue's fail_frac, reported in
// this form because the driver needs a metric that is never 0.
func (p phaseStats) okFrac() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.attempted-p.failed) / float64(p.attempted)
}
