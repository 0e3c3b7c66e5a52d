// Package obs is the protocol's allocation-free observability layer: a
// registry of atomic counters, gauges and fixed-bucket histograms, plus a
// per-operation flight recorder (flight.go) that captures the
// protocol-meaningful lifecycle of reads, writes and epoch changes.
//
// The paper's central claims — partial writes avoid synchronous
// reconciliation (Section 4.2), epoch changes restore availability after
// failures (Section 3), load sharing across distinct quorums works
// (Section 5) — are only as credible as the runtime's ability to show
// them. The obs layer makes the protocol visible (epoch redirects, stale
// marks, propagation staleness durations, lock conflicts, per-phase round
// trips) without perturbing what it measures:
//
//   - Recording a metric costs a handful of atomic adds and zero heap
//     allocations. Counters and histogram buckets are padded to a cache
//     line so unrelated hot counters never false-share.
//   - A nil *Registry is the Nop registry: every method on a nil Registry,
//     Counter, Gauge, Histogram, CounterVec, FlightRecorder or ActiveOp is
//     a cheap no-op, so instrumented code needs no conditionals and pays
//     one predictable branch when observability is disabled.
//   - This package is data-plane code: it must not import fmt, log,
//     encoding or I/O packages (enforced by `make check-obs-imports`).
//     Formatting and exposition live in the obs/expose subpackage.
//
// Naming follows the Prometheus convention (snake case, `_total` suffix
// for counters, unit suffix for histograms); the metric catalogue is in
// DESIGN.md §7.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and the optional flight recorder. Metrics
// are registered on first use and live for the registry's lifetime;
// instrumented components resolve their metrics once at construction and
// hold the returned pointers, so the hot path never touches the registry's
// maps. A nil *Registry is the Nop registry.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	vecs      map[string]*CounterVec
	gaugeVecs map[string]*GaugeVec
	histVecs  map[string]*HistogramVec
	flight    atomic.Pointer[FlightRecorder]
}

// Nop is the disabled registry: metrics resolved from it are nil and every
// recording operation on them is a no-op.
var Nop *Registry

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		vecs:      make(map[string]*CounterVec),
		gaugeVecs: make(map[string]*GaugeVec),
		histVecs:  make(map[string]*HistogramVec),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on the Nop registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// the Nop registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on the Nop registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named counter vector, creating it on first use.
// Returns nil on the Nop registry.
func (r *Registry) CounterVec(name string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = new(CounterVec)
		r.vecs[name] = v
	}
	return v
}

// GaugeVec returns the named gauge vector, creating it on first use.
// Returns nil on the Nop registry.
func (r *Registry) GaugeVec(name string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = new(GaugeVec)
		r.gaugeVecs[name] = v
	}
	return v
}

// HistogramVec returns the named histogram vector, creating it on first
// use. Returns nil on the Nop registry.
func (r *Registry) HistogramVec(name string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histVecs[name]
	if !ok {
		v = new(HistogramVec)
		r.histVecs[name] = v
	}
	return v
}

// AdoptCounter registers an externally owned counter under name, making it
// visible to Snapshot and exposition. See AdoptCounterVec for when adoption
// is the right shape. Adopting an already-registered name replaces the
// previous counter.
func (r *Registry) AdoptCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// AdoptGauge registers an externally owned gauge under name, making it
// visible to Snapshot and exposition. Same rationale as AdoptCounter; the
// simulated transport's process-wide leg workers are adopted by every
// network's registry. Adopting an already-registered name replaces the
// previous gauge.
func (r *Registry) AdoptGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// AdoptHistogram registers an externally owned histogram under name,
// making it visible to Snapshot and exposition. Components that must
// observe even when observability is disabled (e.g. the smart client's
// read-attempt latency, which drives its hedge delay) own a real
// histogram themselves and adopt it into the registry when one is
// attached. Adopting an already-registered name replaces the previous
// histogram.
func (r *Registry) AdoptHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// AdoptCounterVec registers an externally owned counter vector under name,
// making it visible to Snapshot and exposition. Components that must count
// even when observability is disabled (e.g. the transport's per-endpoint
// served counters, which back Network.Load) own a real vector themselves
// and adopt it into the registry when one is attached, so the experiment
// view and the metrics view read the same cells and can never disagree.
// Adopting an already-registered name replaces the previous vector.
func (r *Registry) AdoptCounterVec(name string, v *CounterVec) {
	if r == nil || v == nil {
		return
	}
	r.mu.Lock()
	r.vecs[name] = v
	r.mu.Unlock()
}

// AdoptHistogramVec registers an externally owned histogram vector under
// name, making it visible to Snapshot and exposition. Same rationale as
// AdoptCounterVec: components that must record even when observability is
// disabled own the real vector and adopt it when a registry is attached.
// Adopting an already-registered name replaces the previous vector.
func (r *Registry) AdoptHistogramVec(name string, v *HistogramVec) {
	if r == nil || v == nil {
		return
	}
	r.mu.Lock()
	r.histVecs[name] = v
	r.mu.Unlock()
}

// SetFlight attaches a flight recorder; components resolve it through
// Flight at construction. Attaching nil detaches.
func (r *Registry) SetFlight(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.flight.Store(f)
}

// Flight returns the attached flight recorder, or nil.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}

// NamedValue is one scalar metric in a snapshot.
type NamedValue struct {
	Name  string
	Value int64
}

// NamedHistogram is one histogram in a snapshot.
type NamedHistogram struct {
	Name string
	Hist HistogramSnapshot
}

// NamedVec is one counter vector in a snapshot; Values is indexed by the
// vector's integer label (e.g. node ID). Unregistered indices are zero.
type NamedVec struct {
	Name   string
	Values []uint64
}

// NamedGaugeVec is one gauge vector in a snapshot; Values is indexed by
// the vector's integer label. Unregistered indices are zero.
type NamedGaugeVec struct {
	Name   string
	Values []int64
}

// NamedHistVec is one histogram vector in a snapshot; Hists is indexed by
// the vector's integer label. Unregistered indices are empty.
type NamedHistVec struct {
	Name  string
	Hists []HistogramSnapshot
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name, plus the completed flight-recorder traces. Taking a snapshot is
// not allocation-free; it is an exposition-path operation.
type Snapshot struct {
	Counters   []NamedValue
	Gauges     []NamedValue
	Histograms []NamedHistogram
	Vecs       []NamedVec
	GaugeVecs  []NamedGaugeVec
	HistVecs   []NamedHistVec
	Traces     []Trace
}

// Snapshot copies the current value of every metric. On the Nop registry
// it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: int64(c.Load())})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: g.Load()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, NamedHistogram{Name: name, Hist: h.Snapshot()})
	}
	for name, v := range r.vecs {
		s.Vecs = append(s.Vecs, NamedVec{Name: name, Values: v.Values()})
	}
	for name, v := range r.gaugeVecs {
		s.GaugeVecs = append(s.GaugeVecs, NamedGaugeVec{Name: name, Values: v.Values()})
	}
	for name, v := range r.histVecs {
		s.HistVecs = append(s.HistVecs, NamedHistVec{Name: name, Hists: v.Snapshots()})
	}
	r.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Vecs, func(i, j int) bool { return s.Vecs[i].Name < s.Vecs[j].Name })
	sort.Slice(s.GaugeVecs, func(i, j int) bool { return s.GaugeVecs[i].Name < s.GaugeVecs[j].Name })
	sort.Slice(s.HistVecs, func(i, j int) bool { return s.HistVecs[i].Name < s.HistVecs[j].Name })
	if f := r.Flight(); f != nil {
		s.Traces = f.Traces()
	}
	return s
}
