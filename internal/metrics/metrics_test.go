package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryNoop pins the off-switch contract: every method on a nil
// registry and its nil instruments must be callable and inert.
func TestNilRegistryNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value %d, want 0", got)
	}
	g := r.Gauge("g")
	g.Set(1.5)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge value %v, want 0", got)
	}
	h := r.Histogram("h", WallBuckets())
	h.Observe(100)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram count=%d sum=%d, want 0,0", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if snap.Schema != Schema {
		t.Fatalf("nil snapshot schema %q, want %q", snap.Schema, Schema)
	}
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

// TestEmptySnapshot: a fresh registry exports a schema-stamped document
// with no instruments, and it survives a JSON round trip.
func TestEmptySnapshot(t *testing.T) {
	snap := New().Snapshot()
	if snap.Schema != Schema {
		t.Fatalf("schema %q, want %q", snap.Schema, Schema)
	}
	var sb strings.Builder
	if err := snap.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Schema != Schema {
		t.Fatalf("round-tripped schema %q", back.Schema)
	}
}

// TestHistogramSingleSample: one observation lands in exactly one bucket,
// and count/sum agree with it.
func TestHistogramSingleSample(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	h.Observe(100) // boundary: v <= bound lands at that bound
	hs := r.Snapshot().Histogram("lat")
	if hs == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 1 || hs.Sum != 100 {
		t.Fatalf("count=%d sum=%d, want 1,100", hs.Count, hs.Sum)
	}
	if len(hs.Buckets) != 1 || hs.Buckets[0].Le != 100 || hs.Buckets[0].Count != 1 {
		t.Fatalf("buckets %+v, want one at le=100", hs.Buckets)
	}
}

// TestHistogramOverflowBucket: observations above the last bound land in
// the implicit overflow bucket, exported with Le = OverflowLe.
func TestHistogramOverflowBucket(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []int64{10, 100})
	h.Observe(101)
	h.Observe(1 << 40)
	hs := r.Snapshot().Histogram("lat")
	if len(hs.Buckets) != 1 || hs.Buckets[0].Le != OverflowLe {
		t.Fatalf("buckets %+v, want only the overflow bucket", hs.Buckets)
	}
	if hs.Buckets[0].Count != 2 {
		t.Fatalf("overflow count %d, want 2", hs.Buckets[0].Count)
	}
}

// TestHistogramBucketBoundaries pins the v <= bound rule at every edge.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("b", []int64{10, 20})
	for _, v := range []int64{0, 10} {
		h.Observe(v) // both land in le=10
	}
	h.Observe(11) // le=20
	h.Observe(21) // overflow
	hs := r.Snapshot().Histogram("b")
	want := []BucketSnap{{Le: 10, Count: 2}, {Le: 20, Count: 1}, {Le: OverflowLe, Count: 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets %+v, want %+v", hs.Buckets, want)
	}
	for i, b := range hs.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

// TestHistogramBadBounds: non-ascending bounds are a programming error.
func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-ascending bounds")
		}
	}()
	New().Histogram("bad", []int64{10, 10})
}

// TestRegistryIdempotent: re-registration returns the same instrument, so
// call sites need no setup coordination.
func TestRegistryIdempotent(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge not idempotent")
	}
	h := r.Histogram("x", []int64{1, 2})
	if r.Histogram("x", []int64{99}) != h {
		t.Fatal("Histogram not idempotent")
	}
	// The original layout survives the conflicting re-registration.
	h.Observe(50)
	if hs := r.Snapshot().Histogram("x"); hs.Buckets[0].Le != OverflowLe {
		t.Fatalf("layout changed: %+v", hs.Buckets)
	}
}

// TestSnapshotOrdering: export order is name-sorted regardless of
// registration order, so the snapshot shape is deterministic.
func TestSnapshotOrdering(t *testing.T) {
	r := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Add(1)
		r.Gauge(name).Set(1)
		r.Histogram(name, []int64{10}).Observe(1)
	}
	snap := r.Snapshot()
	want := []string{"alpha", "mid", "zeta"}
	for i, c := range snap.Counters {
		if c.Name != want[i] {
			t.Fatalf("counter order %v", snap.Counters)
		}
	}
	for i, g := range snap.Gauges {
		if g.Name != want[i] {
			t.Fatalf("gauge order %v", snap.Gauges)
		}
	}
	for i, h := range snap.Histograms {
		if h.Name != want[i] {
			t.Fatalf("histogram order %v", snap.Histograms)
		}
	}
}

// TestConcurrentDeterminism: the same logical workload executed by 1, 2
// and 8 concurrent workers hammering the same instruments must come to
// identical snapshot values — the registry-side half of the engines'
// worker-count-independence guarantee (and, under -race, the proof that
// Add and Observe are safe to call concurrently).
func TestConcurrentDeterminism(t *testing.T) {
	const items = 800
	var want *Snapshot
	for _, workers := range []int{1, 2, 8} {
		r := New()
		c := r.Counter("work_total")
		h := r.Histogram("work_hist", []int64{100, 200, 400})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < items; i += workers {
					c.Add(int64(i))
					h.Observe(int64(i % 500))
				}
			}(w)
		}
		wg.Wait()
		r.Gauge("workers_indep").Set(1)
		snap := r.Snapshot()
		if want == nil {
			want = snap
			continue
		}
		got, _ := json.Marshal(snap)
		exp, _ := json.Marshal(want)
		if string(got) != string(exp) {
			t.Fatalf("workers=%d snapshot diverged:\n%s\nvs\n%s", workers, got, exp)
		}
	}
}

// TestWriteFileJSONAndCSV: the extension selects the format and both
// outputs carry the schema/content.
func TestWriteFileJSONAndCSV(t *testing.T) {
	r := New()
	r.Counter("hits").Add(3)
	r.Histogram("lat", []int64{10}).Observe(1 << 20) // overflow → "+Inf" in CSV
	dir := t.TempDir()

	jf := filepath.Join(dir, "snap.json")
	if err := r.Snapshot().WriteFile(jf); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(jf)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("JSON output unparsable: %v", err)
	}
	if v, ok := snap.Counter("hits"); !ok || v != 3 {
		t.Fatalf("hits=%d ok=%v", v, ok)
	}

	cf := filepath.Join(dir, "snap.csv")
	if err := r.Snapshot().WriteFile(cf); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(cf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"name,value", "hits,3", "+Inf"} {
		if !strings.Contains(string(csv), want) {
			t.Fatalf("CSV lacks %q:\n%s", want, csv)
		}
	}
}

// TestWriteFileErrorPropagation: I/O failures surface as wrapped errors
// naming the path (the cmd binaries fold them into exit codes).
func TestWriteFileErrorPropagation(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "snap.json")
	err := New().Snapshot().WriteFile(bad)
	if err == nil {
		t.Fatal("no error writing into a missing directory")
	}
	if !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("error %q lacks the metrics prefix", err)
	}
}

// TestSessionRoundTrip: StartSession + instrumentation + Close writes a
// schema-valid snapshot containing both the user counters and the host
// session gauges.
func TestSessionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.json")
	sess, err := StartSession(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Registry() == nil {
		t.Fatal("metrics path set but registry nil")
	}
	stop := sess.Time("phase")
	stop()
	sess.Registry().Counter("events").Add(2)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != Schema {
		t.Fatalf("schema %q", snap.Schema)
	}
	if v, ok := snap.Counter("events"); !ok || v != 2 {
		t.Fatalf("events=%d ok=%v", v, ok)
	}
	if _, ok := snap.Counter("phase_wall_ns"); !ok {
		t.Fatal("Time counter missing")
	}
	for _, g := range []string{"host_session_wall_ns", "host_alloc_bytes_total", "host_gomaxprocs"} {
		if _, ok := snap.Gauge(g); !ok {
			t.Fatalf("host gauge %s missing", g)
		}
	}
}

// TestSessionDisabled: with no -metrics path the session is a pure no-op
// whose Close succeeds without writing anything.
func TestSessionDisabled(t *testing.T) {
	sess, err := StartSession("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Registry() != nil {
		t.Fatal("registry allocated with metrics off")
	}
	sess.Time("x")() // must not panic
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSess *Session
	if nilSess.Registry() != nil || nilSess.Close() != nil {
		t.Fatal("nil session not inert")
	}
	nilSess.Time("y")()
}

// TestSessionCloseErrorPropagation: an unwritable snapshot destination
// surfaces from Close.
func TestSessionCloseErrorPropagation(t *testing.T) {
	sess, err := StartSession(filepath.Join(t.TempDir(), "missing", "out.json"), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err == nil {
		t.Fatal("Close swallowed the write error")
	}
}

// TestSessionPprofModes: each supported mode produces a non-empty profile
// file; an unknown mode fails fast and leaves nothing behind.
func TestSessionPprofModes(t *testing.T) {
	for _, mode := range []string{"cpu", "heap", "mutex"} {
		path := filepath.Join(t.TempDir(), mode+".pprof")
		sess, err := StartSession("", mode, path)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("%s close: %v", mode, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: profile missing or empty (err=%v)", mode, err)
		}
	}
	bad := filepath.Join(t.TempDir(), "bogus.pprof")
	if _, err := StartSession("", "bogus", bad); err == nil {
		t.Fatal("unknown pprof mode accepted")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("rejected mode left a file behind (err=%v)", err)
	}
}

// TestPowersOf2 pins the latency bucket generator.
func TestPowersOf2(t *testing.T) {
	got := PowersOf2(3, 5)
	want := []int64{8, 16, 32}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("PowersOf2(3,5)=%v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on inverted range")
		}
	}()
	PowersOf2(5, 3)
}
