package metrics

// Snapshot export: one deterministic, schema-versioned view of a registry,
// written as JSON (the -metrics flag's .json form) or as concatenated
// harness.Table CSV. Export shares the probe layer's error discipline:
// every write path returns its I/O error so the cmd binaries can propagate
// it to their exit code instead of best-effort writing.

import (
	"fmt"
	"io"
	"math"
	"sort"

	"almostmix/internal/harness"
)

// Schema identifies the snapshot layout. Bump on any incompatible change
// so downstream consumers of -metrics files can dispatch on it.
const Schema = "almostmix-metrics/v1"

// CounterSnap is one exported counter.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one exported gauge.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketSnap is one exported histogram bucket: the count of observations v
// with prev bound < v <= Le. The overflow bucket carries Le = MaxInt64.
type BucketSnap struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// OverflowLe marks the upper bound of a histogram's overflow bucket.
const OverflowLe = math.MaxInt64

// HistogramSnap is one exported histogram: total count and sum plus the
// per-bucket counts (empty buckets are elided; Buckets is nil for a
// histogram that saw no observations).
type HistogramSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is the point-in-time export of a registry, instruments sorted
// by name so the shape is deterministic.
type Snapshot struct {
	Schema     string          `json:"schema"`
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Snapshot reads every instrument and returns the sorted export.
// A nil registry snapshots to the empty (but schema-stamped) document.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Schema: Schema}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		hs := HistogramSnap{Name: name, Count: h.Count(), Sum: h.Sum()}
		for b := range h.buckets {
			count := h.buckets[b].Load()
			if count == 0 {
				continue
			}
			le := int64(OverflowLe)
			if b < len(h.bounds) {
				le = h.bounds[b]
			}
			hs.Buckets = append(hs.Buckets, BucketSnap{Le: le, Count: count})
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// Counter returns the snapshotted value of the named counter and whether
// it was present.
func (s *Snapshot) Counter(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the snapshotted value of the named gauge and whether it
// was present.
func (s *Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the snapshotted histogram by name, or nil.
func (s *Snapshot) Histogram(name string) *HistogramSnap {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a snapshotted
// histogram as the upper bound of the first bucket whose cumulative
// count reaches q·Count — the standard fixed-bucket upper estimate, so
// p99 of a PowersOf2 layout is exact to within one bucket. A histogram
// with no observations (or a nil receiver) reports 0; a quantile that
// lands in the overflow bucket reports OverflowLe.
func (h *HistogramSnap) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(h.Count)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= need {
			return b.Le
		}
	}
	return OverflowLe
}

// Tables renders the snapshot as harness tables (counters, gauges,
// histogram buckets), the CSV building blocks of the non-JSON export.
func (s *Snapshot) Tables() []*harness.Table {
	ct := harness.NewTable("metrics counters", "name", "value")
	for _, c := range s.Counters {
		ct.AddRow(c.Name, c.Value)
	}
	gt := harness.NewTable("metrics gauges", "name", "value")
	for _, g := range s.Gauges {
		gt.AddRow(g.Name, g.Value)
	}
	ht := harness.NewTable("metrics histograms", "name", "le", "count", "total_count", "sum")
	for _, h := range s.Histograms {
		if len(h.Buckets) == 0 {
			ht.AddRow(h.Name, "-", 0, h.Count, h.Sum)
			continue
		}
		for _, b := range h.Buckets {
			le := fmt.Sprintf("%d", b.Le)
			if b.Le == OverflowLe {
				le = "+Inf"
			}
			ht.AddRow(h.Name, le, b.Count, h.Count, h.Sum)
		}
	}
	return []*harness.Table{ct, gt, ht}
}

// WriteJSON writes the snapshot as one indented JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error { return harness.WriteJSON(w, s) }

// WriteCSV writes the snapshot as consecutive CSV tables separated by
// blank lines: counters, gauges, histograms.
func (s *Snapshot) WriteCSV(w io.Writer) error { return harness.WriteCSV(w, s.Tables()...) }

// WriteFile writes the snapshot to path — JSON when the extension is
// .json, CSV otherwise — and returns any I/O error (create, write or
// close), wrapped with the path for the cmd exit message.
func (s *Snapshot) WriteFile(path string) error {
	return harness.WriteDocument(path, "metrics", s)
}
