// Package metrics is the host-side registry: counters, gauges and
// fixed-bucket histograms measuring what the machine does while the
// simulator measures what the model does. The cost ledger (internal/cost)
// and the probe layer (internal/congest) account simulated rounds; this
// package accounts the wall-clock, allocation and scheduler behaviour of
// the process executing them, so the two trajectories can be read side by
// side (EXPERIMENTS.md).
//
// The contract mirrors the probe layer's (DESIGN.md §3):
//
//   - A nil *Registry is the off switch. Every method on a nil Registry
//     returns a nil instrument, and every method on a nil instrument is a
//     no-op, so an instrumented hot loop with metrics off pays exactly one
//     nil check — the same fast-path discipline as Ctx.Mark without a
//     probe (BenchmarkCongestEngine guards this).
//   - Instruments are atomic and safe for concurrent use, and nothing
//     more: every engine and coordinator write happens between barriers
//     on one goroutine (a part's busy time lives in the part itself, see
//     congest/metrics.go), so there is no contention to shard away.
//   - Snapshots are deterministic in shape: instruments are sorted by
//     name and bucket layouts are fixed at construction, so two runs
//     differ only in the measured values, never in the schema of the
//     export.
//
// Registration is idempotent: asking for an existing name returns the
// existing instrument, so call sites need no shared setup phase.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Registry holds named instruments. The zero value is not usable — New
// allocates one — but a nil *Registry is: it hands out nil instruments
// whose methods all no-op, which is the metrics-off fast path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending; an implicit overflow bucket catches everything
// above the last bound) on first use. Later calls return the existing
// histogram regardless of bounds: the layout is fixed at creation. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bounds not ascending at %d", name, i))
			}
		}
		h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Safe for concurrent use; a nil counter
// ignores the call.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter. A nil counter reads 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the value. A nil gauge ignores the call.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the last value set (0 before any Set, or on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts int64 observations into fixed buckets: observation v
// lands in the first bucket with v <= bound, or in the implicit overflow
// bucket above the last bound.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // one count per bound, overflow last
	// sum and count are Σv and N for mean derivation.
	sum, count atomic.Int64
}

// bucketOf locates v's bucket index (len(bounds) = overflow) by binary
// search over the fixed bounds.
func (h *Histogram) bucketOf(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records v. Safe for concurrent use; a nil histogram ignores
// the call.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of the observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// PowersOf2 returns ascending power-of-two bounds from 2^lo to 2^hi
// inclusive — the standard latency bucket layout used for wall-time
// histograms (2^8 ns ≈ 256ns up to 2^30 ns ≈ 1.07s covers the engines'
// per-round range on any plausible host).
func PowersOf2(lo, hi int) []int64 {
	if lo < 0 || hi < lo || hi > 62 {
		panic(fmt.Sprintf("metrics: bad PowersOf2 range [%d,%d]", lo, hi))
	}
	bounds := make([]int64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		bounds = append(bounds, int64(1)<<uint(e))
	}
	return bounds
}

// WallBuckets is the default per-round wall-time bucket layout.
func WallBuckets() []int64 { return PowersOf2(8, 30) }
