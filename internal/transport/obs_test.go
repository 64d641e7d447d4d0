package transport_test

// Observability-tier tests: the -obsout document on every exit path
// (finish, shard death, barrier deadline), the shard telemetry
// ship-back reaching the coordinator's metrics registry, and the
// differential guarantee that turning all of it on leaves probe/trace
// output byte-identical across backends and worker counts.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/flightrec"
	"almostmix/internal/metrics"
	"almostmix/internal/transport"
)

// obsSpec is the walks suite spec: enough rounds to die mid-run.
func obsSpec() transport.Spec {
	return transport.Spec{Workload: "walks", Graph: "rr", N: 32, D: 4, K: 1, Steps: 8, Seed: 1, SrcSeed: 81}
}

func readObsFile(t *testing.T, path string) *transport.ObsDoc {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading obs document: %v", err)
	}
	d, err := transport.ReadObs(b)
	if err != nil {
		t.Fatalf("obs document invalid: %v", err)
	}
	return d
}

// TestObsFinishDoc runs a clean tcp run with the full observability
// stack on and checks the merged document: both sides' flight
// recorders, wire rows from both endpoints of every coordinator link and
// one peer row per shard, a peer-wait row per round and shard, and
// per-round skew. It also pins
// satellite (a): the shard-side frameConn tallies must reach the
// coordinator's registry as tcpnet_shard_* instruments.
func TestObsFinishDoc(t *testing.T) {
	out := filepath.Join(t.TempDir(), "obs.json")
	reg := metrics.New()
	sink := congest.NewTraceSink()
	tcp := transport.TCP{
		Shards:  2,
		Timeout: 30 * time.Second,
		Spawn:   goroutineSpawner(nil),
		ObsOut:  out,
	}
	if _, err := tcp.Run(obsSpec(), transport.Options{Probe: sink.Label("obs"), Metrics: reg}); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	d := readObsFile(t, out)
	if d.Reason != flightrec.ReasonFinish {
		t.Errorf("reason = %q, want finish", d.Reason)
	}
	if d.GuiltyShard != -1 {
		t.Errorf("clean finish blames shard %d", d.GuiltyShard)
	}
	for i, sd := range d.ShardDumps {
		if sd == nil {
			t.Errorf("shard %d shipped no flight dump on a clean finish", i)
			continue
		}
		if sd.Role != "shard" || sd.Shard != i || sd.Reason != flightrec.ReasonFinish {
			t.Errorf("shard %d shipped the dump of %s %d, reason %s", i, sd.Role, sd.Shard, sd.Reason)
		}
		if !slices.ContainsFunc(sd.Events, func(ev flightrec.Event) bool { return ev.Kind == flightrec.KindFrameSent }) {
			t.Errorf("shard %d's flight dump shows no frame it sent (%d events)", i, len(sd.Events))
		}
	}
	if len(d.Wire) != 3*d.Shards {
		t.Errorf("wire rows = %d, want coord, shard and peer rows of %d shards", len(d.Wire), d.Shards)
	}
	waits := 0
	for _, row := range d.Timeline {
		if row.Phase == "peer-wait" {
			waits++
		}
	}
	if waits != d.Rounds*d.Shards {
		t.Errorf("%d peer-wait rows, want one per round and shard (%d rounds)", waits, d.Rounds)
	}
	if len(d.Skew) != d.Rounds {
		t.Errorf("%d skew samples for %d rounds", len(d.Skew), d.Rounds)
	}
	for _, ws := range d.Wire {
		if ws.SentFrames == 0 || ws.RecvFrames == 0 {
			t.Errorf("wire row %s/%d has zero frame tallies: %+v", ws.Endpoint, ws.Shard, ws)
		}
	}

	snap := reg.Snapshot()
	for shard := 0; shard < 2; shard++ {
		name := fmt.Sprintf("tcpnet_shard_frames_total{shard=%d}", shard)
		if v, ok := snap.Counter(name); !ok || v == 0 {
			t.Errorf("%s = %d, ok=%v: shard-side tallies did not reach the registry", name, v, ok)
		}
	}
	if v, ok := snap.Counter("tcpnet_frames_total{shard=0}"); !ok || v == 0 {
		t.Errorf("coordinator tcpnet_frames_total{shard=0} = %d, ok=%v", v, ok)
	}
	for _, name := range []string{"tcpnet_round_skew_ns", "tcpnet_peer_wait_ns"} {
		if h := snap.Histogram(name); h == nil || h.Count == 0 {
			t.Errorf("%s histogram missing or empty", name)
		}
	}
}

// TestObsStallDump pins the barrier-deadline exit path: a stalled shard
// must leave a schema-valid document naming the guilty shard, its last
// completed round and the phase its peer waited on it in.
func TestObsStallDump(t *testing.T) {
	out := filepath.Join(t.TempDir(), "obs.json")
	tcp := transport.TCP{
		Shards:  2,
		Timeout: 1 * time.Second,
		ObsOut:  out,
		Spawn: goroutineSpawner(func(shard int) transport.ShardConfig {
			if shard == 0 {
				return transport.ShardConfig{StallAtRound: 2}
			}
			return transport.ShardConfig{}
		}),
	}
	_, err := tcp.Run(obsSpec(), transport.Options{})
	if err == nil {
		t.Fatal("stalled shard: run reported success")
	}

	d := readObsFile(t, out)
	if d.Reason != flightrec.ReasonBarrierDeadline {
		t.Errorf("reason = %q, want barrier-deadline", d.Reason)
	}
	if d.GuiltyShard != 0 {
		t.Errorf("guilty shard = %d, want 0", d.GuiltyShard)
	}
	if d.LastRound != 1 {
		t.Errorf("last completed round = %d, want 1 (stall about to step round 2)", d.LastRound)
	}
	if d.Phase != "peer-wait" {
		t.Errorf("phase = %q, want peer-wait", d.Phase)
	}
	if d.Error == "" {
		t.Error("document carries no error text")
	}
	if d.Coordinator.GuiltyShard != 0 {
		t.Errorf("coordinator dump blames shard %d, want 0", d.Coordinator.GuiltyShard)
	}
	if len(d.Coordinator.Events) == 0 {
		t.Error("coordinator dump has no events")
	}
}

// TestObsDeathDump pins the shard-death exit path and its attribution.
func TestObsDeathDump(t *testing.T) {
	out := filepath.Join(t.TempDir(), "obs.json")
	tcp := transport.TCP{
		Shards:  2,
		Timeout: 5 * time.Second,
		ObsOut:  out,
		Spawn: goroutineSpawner(func(shard int) transport.ShardConfig {
			if shard == 1 {
				return transport.ShardConfig{FailAtRound: 3}
			}
			return transport.ShardConfig{}
		}),
	}
	_, err := tcp.Run(obsSpec(), transport.Options{})
	if err == nil {
		t.Fatal("shard death: run reported success")
	}

	d := readObsFile(t, out)
	if d.Reason != flightrec.ReasonShardDeath {
		t.Errorf("reason = %q, want shard-death", d.Reason)
	}
	if d.GuiltyShard != 1 {
		t.Errorf("guilty shard = %d, want 1", d.GuiltyShard)
	}
	if d.LastRound != 2 {
		t.Errorf("last completed round = %d, want 2 (death about to step round 3): %v", d.LastRound, err)
	}
}

// TestTelemetryTraceParity is satellite (c): running with the FULL
// telemetry stack enabled — metrics registry, obs document, timeline
// sink — must leave the trace/probe output byte-identical across the
// proc engine at workers 1, 2 and 8 and the tcp backend at shards 1, 2
// and 8. Wall-clock observability must never leak into trace bytes.
func TestTelemetryTraceParity(t *testing.T) {
	spec := obsSpec()
	run := func(tr transport.Transport) []byte {
		t.Helper()
		sink := congest.NewTraceSink().WithMetrics(metrics.New())
		if _, err := tr.Run(spec, transport.Options{Probe: sink.Label("parity"), Metrics: metrics.New()}); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		var buf bytes.Buffer
		if err := sink.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := run(transport.Proc{Workers: 1})
	for _, workers := range []int{2, 8} {
		if got := run(transport.Proc{Workers: workers}); !bytes.Equal(want, got) {
			t.Errorf("proc workers=%d: trace bytes diverge with telemetry on (%d vs %d bytes)",
				workers, len(want), len(got))
		}
	}
	for _, shards := range []int{1, 2, 8} {
		out := filepath.Join(t.TempDir(), fmt.Sprintf("obs%d.json", shards))
		tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil), ObsOut: out}
		if got := run(tcp); !bytes.Equal(want, got) {
			t.Errorf("tcp shards=%d: trace bytes diverge with telemetry on (%d vs %d bytes)",
				shards, len(want), len(got))
		}
		readObsFile(t, out) // the parity run's document must still validate
	}
}

// TestRunMetricsOneBlock: both backends close their runs into congest's
// one run-metrics block. A faulty spec run on the sequential engine and
// over goroutine-mode TCP must export the same congest_* instruments —
// the engine's per-worker busy/idle split aside — and the same
// deterministic totals: runs, rounds, deliveries, node steps and the four
// fault counters.
func TestRunMetricsOneBlock(t *testing.T) {
	spec := obsSpec()
	spec.Workload, spec.FaultSpec, spec.FaultSeed = "walks-faults", "drop=0.1,dup=0.05,delay=0.1:2,crash=3@2+2", 4
	run := func(tr transport.Transport) (names []string, snap *metrics.Snapshot) {
		t.Helper()
		reg := metrics.New()
		if _, err := tr.Run(spec, transport.Options{Metrics: reg}); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		snap = reg.Snapshot()
		keep := func(name string) {
			if strings.HasPrefix(name, "congest_") && !strings.HasPrefix(name, "congest_worker_") {
				names = append(names, name)
			}
		}
		for _, c := range snap.Counters {
			keep(c.Name)
		}
		for _, g := range snap.Gauges {
			keep(g.Name)
		}
		for _, h := range snap.Histograms {
			keep(h.Name)
		}
		return names, snap
	}
	procNames, proc := run(transport.Proc{Workers: 1})
	tcpNames, tcp := run(transport.TCP{Shards: 2, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)})
	if !reflect.DeepEqual(procNames, tcpNames) {
		t.Errorf("congest_* instruments differ:\nproc %v\n tcp %v", procNames, tcpNames)
	}
	for _, name := range []string{
		"congest_runs_total", "congest_rounds_total", "congest_messages_delivered_total",
		"congest_node_steps_total", "congest_msgs_dropped_total", "congest_msgs_duplicated_total",
		"congest_msgs_delayed_total", "congest_node_crash_rounds_total",
	} {
		p, pok := proc.Counter(name)
		q, qok := tcp.Counter(name)
		if !pok || !qok || p != q {
			t.Errorf("%s: proc %d (registered %v), tcp %d (registered %v)", name, p, pok, q, qok)
		}
	}
	if v, _ := proc.Counter("congest_msgs_dropped_total"); v == 0 {
		t.Error("the fault plan dropped nothing: the fault counters are untested")
	}
	if v, _ := proc.Counter("congest_node_steps_total"); v == 0 {
		t.Error("no node step counted")
	}
}

// TestFlightDumpOnlyForObsOut: a shard ships its flight dump exactly when
// SPEC asks, i.e. for an -obsout run. A 2-shard GHS run without ObsOut
// takes TELEMETRY from both shards and no dump; with ObsOut, one from each.
func TestFlightDumpOnlyForObsOut(t *testing.T) {
	spec := suiteSpecs(1)[3]
	if spec.Workload != "ghs" {
		t.Fatalf("suiteSpecs(1)[3] is %s, want ghs", spec.Workload)
	}
	for _, obsOut := range []string{"", filepath.Join(t.TempDir(), "obs.json")} {
		tcp := transport.TCP{Shards: 2, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil), ObsOut: obsOut}
		shipped, err := transport.ShippedDumps(tcp, spec)
		if err != nil {
			t.Fatalf("obsout %q: %v", obsOut, err)
		}
		if want := []bool{obsOut != "", obsOut != ""}; !slices.Equal(shipped, want) {
			t.Errorf("obsout %q: shards shipped dumps %v, want %v", obsOut, shipped, want)
		}
	}
}
