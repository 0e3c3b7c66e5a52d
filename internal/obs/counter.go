package obs

import (
	"sync"
	"sync/atomic"
)

// pad fills a Counter/Gauge out to a 64-byte cache line. Hot counters are
// incremented by many goroutines; without padding, two unrelated counters
// that happen to share a line would false-share and serialize their cores'
// caches even though the data races not at all.
type pad [56]byte

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op (the Nop registry resolves every
// metric to nil). Recording never allocates.
type Counter struct {
	v atomic.Uint64
	_ pad
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value; zero on nil.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter. Exposition-style consumers should prefer
// monotonic reads; Reset exists for harnesses (e.g. transport.ResetStats)
// that measure deltas across configuration changes.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is an atomic signed value that can move both ways. The zero value
// is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
	_ pad
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value; zero on nil.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CompareAndSwap stores new if the gauge still holds old and reports
// whether it did; false on nil. It is for owners whose gauge is their
// state (a count of idle workers claimed and returned one at a time), not
// a copy of it.
func (g *Gauge) CompareAndSwap(old, new int64) bool {
	return g != nil && g.v.CompareAndSwap(old, new)
}

// CounterVec is a vector of counters indexed by a small non-negative
// integer label — per-node served requests, per-outcome tallies. The zero
// value is ready to use; a nil *CounterVec is a no-op.
//
// At grows the vector (copy-on-write under a mutex) and is a
// construction-time operation; hot paths resolve their cell once and hold
// the *Counter. Get is the lock-free read-side accessor.
type CounterVec struct {
	mu  sync.Mutex
	arr atomic.Pointer[[]*Counter]
}

// At returns the counter for index i, growing the vector as needed.
// Returns nil on a nil vector or a negative index.
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 {
		return nil
	}
	if arr := v.arr.Load(); arr != nil && i < len(*arr) && (*arr)[i] != nil {
		return (*arr)[i]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.arr.Load()
	size := i + 1
	if old != nil && len(*old) > size {
		size = len(*old)
	}
	arr := make([]*Counter, size)
	if old != nil {
		copy(arr, *old)
	}
	if arr[i] == nil {
		arr[i] = new(Counter)
	}
	v.arr.Store(&arr)
	return arr[i]
}

// Get returns the counter for index i if it exists, without growing;
// nil otherwise. Lock-free.
func (v *CounterVec) Get(i int) *Counter {
	if v == nil || i < 0 {
		return nil
	}
	arr := v.arr.Load()
	if arr == nil || i >= len(*arr) {
		return nil
	}
	return (*arr)[i]
}

// Len returns the current vector length (one past the highest registered
// index).
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	arr := v.arr.Load()
	if arr == nil {
		return 0
	}
	return len(*arr)
}

// Values copies the current cell values; unregistered cells read zero.
func (v *CounterVec) Values() []uint64 {
	if v == nil {
		return nil
	}
	arr := v.arr.Load()
	if arr == nil {
		return nil
	}
	out := make([]uint64, len(*arr))
	for i, c := range *arr {
		out[i] = c.Load() // nil-safe: unregistered cells are zero
	}
	return out
}

// Reset zeroes every registered cell.
func (v *CounterVec) Reset() {
	if v == nil {
		return
	}
	arr := v.arr.Load()
	if arr == nil {
		return
	}
	for _, c := range *arr {
		c.Reset()
	}
}

// GaugeVec is a vector of gauges indexed by a small non-negative integer
// label — per-endpoint load estimates, per-node queue depths. Same shape
// and discipline as CounterVec: At grows copy-on-write under a mutex and
// is a construction-time operation; hot paths resolve cells once (or use
// the lock-free Get) and record through the held *Gauge. The zero value is
// ready to use; a nil *GaugeVec is a no-op.
type GaugeVec struct {
	mu  sync.Mutex
	arr atomic.Pointer[[]*Gauge]
}

// At returns the gauge for index i, growing the vector as needed.
// Returns nil on a nil vector or a negative index.
func (v *GaugeVec) At(i int) *Gauge {
	if v == nil || i < 0 {
		return nil
	}
	if arr := v.arr.Load(); arr != nil && i < len(*arr) && (*arr)[i] != nil {
		return (*arr)[i]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.arr.Load()
	size := i + 1
	if old != nil && len(*old) > size {
		size = len(*old)
	}
	arr := make([]*Gauge, size)
	if old != nil {
		copy(arr, *old)
	}
	if arr[i] == nil {
		arr[i] = new(Gauge)
	}
	v.arr.Store(&arr)
	return arr[i]
}

// Get returns the gauge for index i if it exists, without growing;
// nil otherwise. Lock-free.
func (v *GaugeVec) Get(i int) *Gauge {
	if v == nil || i < 0 {
		return nil
	}
	arr := v.arr.Load()
	if arr == nil || i >= len(*arr) {
		return nil
	}
	return (*arr)[i]
}

// Len returns the current vector length (one past the highest registered
// index).
func (v *GaugeVec) Len() int {
	if v == nil {
		return 0
	}
	arr := v.arr.Load()
	if arr == nil {
		return 0
	}
	return len(*arr)
}

// Values copies the current cell values; unregistered cells read zero.
func (v *GaugeVec) Values() []int64 {
	if v == nil {
		return nil
	}
	arr := v.arr.Load()
	if arr == nil {
		return nil
	}
	out := make([]int64, len(*arr))
	for i, g := range *arr {
		out[i] = g.Load() // nil-safe: unregistered cells are zero
	}
	return out
}
