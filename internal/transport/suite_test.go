package transport_test

// The differential suite: every workload × shard count × seed must
// produce byte-identical TraceSink output — and identical
// rounds/messages/merged outputs — on the TCP backend and the
// in-process engines. Shards run as goroutines here so the whole wire
// protocol sits under the race detector; real-process coverage is in
// process_test.go. Failure-injection tests (shard death mid-round,
// shard stall) assert the coordinator degrades to a clean
// shard-attributed error within its timeout, never a hang.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/metrics"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// suiteSpecs is one spec per workload, sized for seconds-long runs.
func suiteSpecs(seed uint64) []transport.Spec {
	return []transport.Spec{
		{Workload: "ticker", Graph: "ring", N: 12, Steps: 5, SrcSeed: seed + 90},
		{Workload: "bfs", Graph: "rr", N: 32, D: 4, Root: 3, Seed: seed, SrcSeed: seed + 50},
		{Workload: "broadcast", Graph: "ringlattice", N: 24, D: 2, Root: 5, Value: 42, SrcSeed: seed + 60},
		{Workload: "ghs", Graph: "rr", N: 24, D: 4, Seed: seed, SrcSeed: seed + 70, WeightSeed: seed + 7},
		{Workload: "walks", Graph: "rr", N: 32, D: 4, K: 1, Steps: 8, Seed: seed, SrcSeed: seed + 80},
	}
}

// pathBFS is BFS from root along a 16-node path 0–1–…–15 (a lollipop whose
// clique is one node): a quiet-terminating workload whose shards far from
// the root deliver nothing until the wave reaches them, so they hold their
// early steps back and the coordinator has to send STEP.
func pathBFS(root int) *transport.Spec {
	return &transport.Spec{Workload: "bfs", Graph: "lollipop", N: 1, D: 15, Root: root, SrcSeed: 51}
}

// goroutineSpawner runs each shard as an in-process goroutine speaking
// the real TCP loopback protocol.
func goroutineSpawner(cfgFor func(shard int) transport.ShardConfig) transport.SpawnFunc {
	return wrappedSpawner(cfgFor, nil)
}

// wrappedSpawner is goroutineSpawner with a slot between DialShard and
// ServeShard: wrap (when non-nil) may replace a shard's connection, which
// is where hostile_test.go puts its scripted misbehaving peer — the
// product code on both ends stays exactly what ships.
func wrappedSpawner(cfgFor func(shard int) transport.ShardConfig, wrap func(shard int, conn net.Conn) net.Conn) transport.SpawnFunc {
	return func(shard int, addr string) (transport.ShardHandle, error) {
		done := make(chan error, 1)
		go func() {
			// The listener is up before any shard is spawned, so a dial either
			// connects at once or is refused because a sibling's failure has
			// already ended the run — and Kill cannot interrupt a goroutine, so
			// the budget is how long such a run then takes to reap.
			conn, err := transport.DialShard(addr, 2*time.Second)
			if err != nil {
				done <- err
				return
			}
			if wrap != nil {
				conn = wrap(shard, conn)
			}
			var cfg transport.ShardConfig
			if cfgFor != nil {
				cfg = cfgFor(shard)
			}
			done <- transport.ServeShard(conn, shard, cfg)
		}()
		return transport.ShardHandle{
			Wait: func() error { return <-done },
			Kill: func() {},
		}, nil
	}
}

// traceRun executes spec on tr with a labeled TraceSink and returns the
// sink's JSON bytes alongside the result.
func traceRun(t *testing.T, tr transport.Transport, spec transport.Spec, label string) ([]byte, transport.Result) {
	t.Helper()
	sink := congest.NewTraceSink()
	res, err := tr.Run(spec, transport.Options{Probe: sink.Label(label)})
	if err != nil {
		t.Fatalf("%s: %s run: %v", spec.Workload, tr.Name(), err)
	}
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: encoding trace: %v", spec.Workload, err)
	}
	return buf.Bytes(), res
}

func sameResult(t *testing.T, what string, want, got transport.Result) {
	t.Helper()
	if want.Rounds != got.Rounds || want.Messages != got.Messages || !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("%s: result diverged: sequential %+v, got %+v", what, want, got)
	}
}

func TestDifferentialSuite(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, spec := range suiteSpecs(seed) {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Workload, seed), func(t *testing.T) {
				t.Parallel()
				want, wantRes := traceRun(t, transport.Proc{Workers: 1}, spec, "diff")
				for _, shards := range []int{1, 2, 4} {
					tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
					got, gotRes := traceRun(t, tcp, spec, "diff")
					if !bytes.Equal(want, got) {
						t.Errorf("shards=%d: trace bytes diverge from the sequential engine (%d vs %d bytes)",
							shards, len(want), len(got))
					}
					sameResult(t, fmt.Sprintf("shards=%d", shards), wantRes, gotRes)
				}
				_, parRes := traceRun(t, transport.Proc{Workers: 4}, spec, "diff")
				sameResult(t, "proc workers=4", wantRes, parRes)
			})
		}
	}
}

// TestProcMatchesDirectEngine pins the cmd-level refactor: routing the
// walks workload through the Transport interface must reproduce the
// direct randomwalk.RunNetwork call bit for bit, trace included.
func TestProcMatchesDirectEngine(t *testing.T) {
	spec := transport.Spec{Workload: "walks", Graph: "rr", N: 32, D: 4, K: 2, Steps: 8, Seed: 7, SrcSeed: 107}
	got, res := traceRun(t, transport.Proc{Workers: 1}, spec, "direct")

	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	sink := congest.NewTraceSink()
	direct, err := randomwalk.RunNetwork(g, randomwalk.UniformCountTimesDegree(g, spec.K),
		spec.Steps, rngutil.NewSource(spec.SrcSeed), congest.Options{Workers: 1, Probe: sink.Label("direct")})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("transport proc trace diverges from the direct engine call")
	}
	arrived := 0
	for _, c := range direct.ArrivedAt {
		arrived += c
	}
	if res.Rounds != direct.Rounds || res.Messages != direct.Messages ||
		res.Output.(workloads.WalksOutput).Arrived != arrived {
		t.Errorf("transport proc result %+v diverges from direct engine (rounds=%d messages=%d arrived=%d)",
			res, direct.Rounds, direct.Messages, arrived)
	}
}

// TestProcWorkersZeroIsOnePerCPU pins -workers 0: a proc backend built
// from the flag's zero must run the parallel engine with one worker per
// CPU — visible as the per-worker busy counters — not silently fall back
// to the sequential engine.
func TestProcWorkersZeroIsOnePerCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	reg := metrics.New()
	if _, err := (transport.Proc{Workers: 0}).Run(suiteSpecs(1)[4], transport.Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"congest_worker_busy_ns_total{shard=00}", "congest_worker_busy_ns_total{shard=01}"} {
		if _, ok := snap.Counter(name); !ok {
			t.Errorf("workers=0 on 2 CPUs did not register %s: the sequential engine ran", name)
		}
	}
}

func TestShardDeathMidRound(t *testing.T) {
	spec := suiteSpecs(1)[4] // walks: plenty of rounds to die in
	tcp := transport.TCP{
		Shards:  2,
		Timeout: 5 * time.Second,
		Spawn: goroutineSpawner(func(shard int) transport.ShardConfig {
			if shard == 1 {
				return transport.ShardConfig{FailAtRound: 3}
			}
			return transport.ShardConfig{}
		}),
	}
	start := time.Now()
	_, err := tcp.Run(spec, transport.Options{})
	if err == nil {
		t.Fatal("shard death mid-round: run reported success")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error does not attribute the dead shard: %v", err)
	}
	// Attribution detail: the shard died about to step round 3, which its
	// round-3 DELIVER asked for, so it last completed round 2 and the last
	// frame it delivered was round 2's DELIVERED reply.
	if !strings.Contains(err.Error(), "last completed round 2") {
		t.Errorf("error does not name the shard's last completed round: %v", err)
	}
	if !strings.Contains(err.Error(), "last frame DELIVERED") {
		t.Errorf("error does not name the shard's last frame: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("death took %v to surface, want well under the barrier timeout budget", elapsed)
	}
}

// TestShardStallHitsDeadline stalls a shard just before it steps round 2,
// once where round 2's DELIVER carries the step (walks: every shard
// delivers from round 1 on) and once where the STEP fallback does (the
// path BFS: shard 1 delivers nothing in round 2 and holds its step back).
// Either way it last completed round 1, its last frame was a DELIVERED,
// and the coordinator hung in the phase of the frame that asked for the
// step.
func TestShardStallHitsDeadline(t *testing.T) {
	for _, tc := range []struct {
		spec  transport.Spec
		shard int
		phase string
	}{
		{suiteSpecs(1)[4], 0, "phase deliver-wait"},
		{*pathBFS(0), 1, "phase step-wait"},
	} {
		t.Run(tc.spec.Workload, func(t *testing.T) {
			tcp := transport.TCP{
				Shards:  2,
				Timeout: 1 * time.Second,
				Spawn: goroutineSpawner(func(shard int) transport.ShardConfig {
					if shard == tc.shard {
						return transport.ShardConfig{StallAtRound: 2}
					}
					return transport.ShardConfig{}
				}),
			}
			start := time.Now()
			_, err := tcp.Run(tc.spec, transport.Options{})
			if err == nil {
				t.Fatal("stalled shard: run reported success")
			}
			var nerr net.Error
			for _, want := range []string{fmt.Sprintf("shard %d", tc.shard), "last completed round 1", "last frame DELIVERED", tc.phase} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error does not name %q: %v", want, err)
				}
			}
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Errorf("stall surfaced as %v, want a deadline (timeout) error", err)
			}
			if elapsed := time.Since(start); elapsed > 20*time.Second {
				t.Errorf("stall took %v to surface, want a few timeout periods at most", elapsed)
			}
		})
	}
}

// TestOneExchangePerRound pins the fold of the step into DELIVER. GHS is
// not quiet-terminating, so every shard steps on every DELIVER: no STEP
// frame goes out, and the coordinator's side of the wire counts two frames
// per shard per round plus seven per shard for the run's lifecycle (HELLO,
// SPEC, INIT, INITACK, FINISH, FINAL, TELEMETRY). The path BFS is the
// fallback: its far shards hold their steps back and get STEP, and the
// trace and result still equal the sequential engine's. Rooted at node 0
// the held shards follow the stepping ones; rooted at node 15 they come
// first, so the later shards' step sections wait for theirs.
func TestOneExchangePerRound(t *testing.T) {
	run := func(spec transport.Spec, shards int) ([]byte, transport.Result, *metrics.Snapshot) {
		t.Helper()
		reg, sink := metrics.New(), congest.NewTraceSink()
		tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
		res, err := tcp.Run(spec, transport.Options{Probe: sink.Label("fold"), Metrics: reg})
		if err != nil {
			t.Fatalf("%s over %d shards: %v", spec.Workload, shards, err)
		}
		var buf bytes.Buffer
		if err := sink.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res, reg.Snapshot()
	}
	for _, shards := range []int{2, 3} {
		_, res, snap := run(suiteSpecs(1)[3], shards)
		if n, ok := snap.Counter("tcpnet_frames_sent_total{type=STEP}"); ok {
			t.Errorf("ghs, %d shards: %d STEP frames, want none", shards, n)
		}
		frames, _ := snap.Counter("tcpnet_frames_total")
		if want := int64(shards * (7 + 2*res.Rounds)); frames != want {
			t.Errorf("ghs, %d shards, %d rounds: %d frames, want %d", shards, res.Rounds, frames, want)
		}
	}
	for _, root := range []int{0, 15} {
		path := *pathBFS(root)
		want, wantRes := traceRun(t, transport.Proc{Workers: 1}, path, "fold")
		for _, shards := range []int{2, 3} {
			what := fmt.Sprintf("path bfs from %d, %d shards", root, shards)
			got, res, snap := run(path, shards)
			if !bytes.Equal(want, got) {
				t.Errorf("%s: trace bytes diverge from the sequential engine", what)
			}
			sameResult(t, what, wantRes, res)
			if n, _ := snap.Counter("tcpnet_frames_sent_total{type=STEP}"); n == 0 {
				t.Errorf("%s: no STEP frame, the fallback went untested", what)
			}
		}
	}
}

// TestProfileOnlyWithProbe: DELIVERED carries the inbox profile only for
// a probe, which rebuilds its round records from it. Without one the run
// computes the same Result and moves fewer bytes.
func TestProfileOnlyWithProbe(t *testing.T) {
	spec := suiteSpecs(1)[4] // walks: every round delivers
	for _, shards := range []int{2, 3} {
		var results [2]transport.Result
		var wire [2]int64
		for i, probe := range []congest.Probe{congest.NewTraceSink().Label("profile"), nil} {
			reg := metrics.New()
			tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
			res, err := tcp.Run(spec, transport.Options{Probe: probe, Metrics: reg})
			if err != nil {
				t.Fatalf("%d shards, probe %t: %v", shards, probe != nil, err)
			}
			results[i] = res
			wire[i], _ = reg.Snapshot().Counter("tcpnet_bytes_total")
		}
		what := fmt.Sprintf("%d shards without a probe", shards)
		sameResult(t, what, results[0], results[1])
		if results[0].Faults != results[1].Faults {
			t.Errorf("%s: faults %+v, with a probe %+v", what, results[1].Faults, results[0].Faults)
		}
		if wire[1] >= wire[0] {
			t.Errorf("%s: %d wire bytes, with a probe %d: want fewer", what, wire[1], wire[0])
		}
	}
}

func TestDialShardRetriesUntilListen(t *testing.T) {
	// Reserve an address, close it, and only start the real listener
	// after the first dial attempts have failed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ready := make(chan net.Listener, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			ready <- nil
			return
		}
		ready <- ln
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	conn, err := transport.DialShard(addr, 10*time.Second)
	if err != nil {
		t.Fatalf("dial with retry: %v", err)
	}
	conn.Close()
	if ln := <-ready; ln != nil {
		ln.Close()
	}

	if _, err := transport.DialShard(addr, 300*time.Millisecond); err == nil {
		t.Error("dial against a dead address: no error after budget")
	}
}

func TestTCPValidatesShardCount(t *testing.T) {
	spec := suiteSpecs(1)[0] // ticker on ring n=12
	for _, shards := range []int{0, -1, 13} {
		tcp := transport.TCP{Shards: shards, Spawn: goroutineSpawner(nil)}
		if _, err := tcp.Run(spec, transport.Options{}); err == nil {
			t.Errorf("shards=%d accepted for n=12", shards)
		}
	}
}

func TestLookupUnknownWorkload(t *testing.T) {
	_, err := transport.Proc{}.Run(transport.Spec{Workload: "nope", Graph: "ring", N: 8}, transport.Options{})
	if err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown workload: err = %v, want the known-names list", err)
	}
}
