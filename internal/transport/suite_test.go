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
	"sync"
	"sync/atomic"
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
// early steps back and send them in SENDS frames.
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
// from the flag's zero must drive one part per CPU on the worker pool —
// visible as the per-worker busy counters — not silently fall back to one
// part inline.
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

// TestShardDeathMidRound kills a shard just before it steps round 3. At
// two shards its peer names it: the shard last completed round 2, in the
// ROUND frame of round 2. A lone shard has no peer; its link fails at the
// coordinator, which heard its REPORT of round 2 last.
func TestShardDeathMidRound(t *testing.T) {
	spec := suiteSpecs(1)[4] // walks: plenty of rounds to die in
	for _, tc := range []struct {
		shards, victim int
		want           []string
	}{
		{2, 1, []string{"transport: shard 1:", "phase peer-wait", "last completed round 2", "last frame ROUND"}},
		{1, 0, []string{"transport: shard 0: read", "phase rounds", "last completed round 2", "last frame REPORT"}},
	} {
		t.Run(fmt.Sprintf("shards%d", tc.shards), func(t *testing.T) {
			tcp := transport.TCP{
				Shards:  tc.shards,
				Timeout: 5 * time.Second,
				Spawn: goroutineSpawner(func(shard int) transport.ShardConfig {
					if shard == tc.victim {
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
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error does not name %q: %v", want, err)
				}
			}
			if elapsed := time.Since(start); elapsed > 2*tcp.Timeout {
				t.Errorf("death took %v to surface, want within two timeouts", elapsed)
			}
		})
	}
}

// TestShardStallHitsDeadline stalls a shard just before it steps round 2,
// once where its step would ride its ROUND frame (walks: every shard
// delivers from round 1 on) and once where a SENDS would carry it (the
// path BFS: shard 1 delivers nothing in round 2 and holds its step back).
// Either way its peer waits on it in vain, names it within one timeout —
// it last completed round 1, and its last frame was a ROUND — and the
// coordinator surfaces that within two. A lone shard has no peer: the
// coordinator's own wait on its REPORT of round 2 runs out instead. The
// lone GHS shard stalls inside a skip: round 70 lies in the idle tail of
// the first 78-round window, which the shard jumps to round 78 after the
// REPORT that names the skip; the stall fires as it steps round 79, and
// the coordinator's wait on that round's REPORT runs out.
func TestShardStallHitsDeadline(t *testing.T) {
	for _, tc := range []struct {
		spec          transport.Spec
		shards, shard int
		stall, last   int
		frame, phase  string
	}{
		{suiteSpecs(1)[4], 2, 0, 2, 1, "last frame ROUND", "phase peer-wait"},
		{*pathBFS(0), 2, 1, 2, 1, "last frame ROUND", "phase peer-wait"},
		{suiteSpecs(1)[4], 1, 0, 2, 1, "last frame REPORT", "phase rounds"},
		{suiteSpecs(1)[3], 1, 0, 70, 78, "last frame REPORT", "phase rounds"},
	} {
		name := tc.spec.Workload
		if tc.shards == 1 {
			name += " lone shard"
		}
		t.Run(name, func(t *testing.T) {
			tcp := transport.TCP{
				Shards:  tc.shards,
				Timeout: 1 * time.Second,
				Spawn: goroutineSpawner(func(shard int) transport.ShardConfig {
					if shard == tc.shard {
						return transport.ShardConfig{StallAtRound: tc.stall}
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
			for _, want := range []string{fmt.Sprintf("transport: shard %d:", tc.shard), fmt.Sprintf("last completed round %d", tc.last), tc.frame, tc.phase} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error does not name %q: %v", want, err)
				}
			}
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Errorf("stall surfaced as %v, want a deadline (timeout) error", err)
			}
			if elapsed := time.Since(start); elapsed > 2*tcp.Timeout {
				t.Errorf("stall took %v to surface, want within two timeouts", elapsed)
			}
		})
	}
}

// TestOneExchangePerRound pins the round's shape: one ROUND frame from
// every shard to every peer for each round run, none for the rounds the
// skip rule jumps. GHS is not quiet-terminating, so every shard steps at
// once and no SENDS goes out; counted once each, on the sender's side, the
// frames are the ROUNDs of round 0 and the E executed rounds, one PEER
// hello per pair, and per shard five on its coordinator link (HELLO, SPEC,
// INITACK, FINAL, TELEMETRY) plus a REPORT per executed round for the
// probe. GHS sleeps through most of each window, so E is well below R. The path BFS is the
// held step: its far shards hold their steps back and send SENDS, and the
// trace and result still equal the sequential engine's. Rooted at node 0
// the held shards follow the stepping ones; rooted at node 15 they come
// first.
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
	for _, s := range []int{2, 3} {
		_, res, snap := run(suiteSpecs(1)[3], s)
		if n, ok := snap.Counter("tcpnet_frames_sent_total{type=SENDS}"); ok {
			t.Errorf("ghs, %d shards: %d SENDS frames, want none", s, n)
		}
		skipped, _ := snap.Counter("congest_rounds_skipped_total")
		r := int64(res.Rounds) - skipped
		if 2*r > int64(res.Rounds) {
			t.Errorf("ghs, %d shards: %d of %d rounds executed, want most skipped", s, r, res.Rounds)
		}
		pairs := int64(s * (s - 1))
		if n, _ := snap.Counter("tcpnet_frames_sent_total{type=ROUND}"); n != pairs*(r+1) {
			t.Errorf("ghs, %d shards, %d executed rounds: %d ROUND frames, want %d", s, r, n, pairs*(r+1))
		}
		frames, _ := snap.Counter("tcpnet_frames_total")
		if want := pairs*(r+1) + pairs/2 + int64(s)*(5+r); frames != want {
			t.Errorf("ghs, %d shards, %d executed rounds: %d frames, want %d", s, r, frames, want)
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
			if n, _ := snap.Counter("tcpnet_frames_sent_total{type=SENDS}"); n == 0 {
				t.Errorf("%s: no SENDS frame, the held step went untested", what)
			}
		}
	}
}

// TestProfileOnlyWithProbe: shards REPORT each round's inbox profile only
// to a coordinator with a probe, which rebuilds its round records from it.
// Without one the run computes the same Result and moves fewer bytes.
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

// TestBuildGraphRefusesBadSpecs: a graph spec its generator cannot serve
// is an error from BuildGraph, and from a run, in place of a panic or —
// for rr at d = 0 or 1 — a generator redrawing forever. Each build runs
// against a deadline.
func TestBuildGraphRefusesBadSpecs(t *testing.T) {
	for _, spec := range []transport.Spec{
		{Graph: "rr", N: 8, D: 1}, {Graph: "rr", N: 8, D: 0}, {Graph: "rr", N: 5, D: 3}, {Graph: "rr", N: 4, D: 8},
		{Graph: "ring", N: 2}, {Graph: "ringlattice", N: 8, D: 0}, {Graph: "ringlattice", N: 8, D: 4},
	} {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			_, err := transport.BuildGraph(spec)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.HasPrefix(err.Error(), "transport: ") {
				t.Errorf("%s n=%d d=%d: err = %v, want a transport error", spec.Graph, spec.N, spec.D, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s n=%d d=%d: BuildGraph still running after 10s", spec.Graph, spec.N, spec.D)
		}
	}
	spec := transport.Spec{Workload: "ticker", Graph: "rr", N: 8, D: 1, Steps: 2}
	if _, err := (transport.Proc{}).Run(spec, transport.Options{}); err == nil || !strings.Contains(err.Error(), "regular") {
		t.Errorf("ticker on rr n=8 d=1: err = %v, want the graph's refusal", err)
	}
}

// TestLargeFramesSmallBuffers: two shards that write each other frames
// many times their socket buffers at the same moment must not wait on each
// other forever — each link has a writer of its own, so a shard reads
// while its frames go out. Every peer link of three shards gets send and
// receive buffers of 4 KiB, against ROUND frames of about 35 KiB (walks
// on a 24-regular expander, so nearly every crossing port carries a token
// each round, at about four bytes a send); the Result must equal the
// sequential engine's. Frames of a few
// hundred KiB pass too, but every zero window through such buffers waits
// out the kernel's persist timer, which makes that a two-minute test.
func TestLargeFramesSmallBuffers(t *testing.T) {
	spec := transport.Spec{Workload: "walks", Graph: "rr", N: 3072, D: 24, K: 2, Steps: 2, Seed: 5, SrcSeed: 85}
	want, err := transport.Proc{Workers: 1}.Run(spec, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var largest atomic.Int64 // the largest write, a whole frame: a peer writer writes nothing else
	t.Cleanup(transport.SetPeerConnHook(func(_ int, conn net.Conn) net.Conn {
		tc := conn.(*net.TCPConn)
		if err := tc.SetWriteBuffer(4 << 10); err != nil {
			t.Error(err)
		}
		if err := tc.SetReadBuffer(4 << 10); err != nil {
			t.Error(err)
		}
		return &sizeConn{Conn: conn, largest: &largest}
	}))
	tcp := transport.TCP{Shards: 3, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
	got, err := tcp.Run(spec, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "3 shards, 4 KiB socket buffers", want, got)
	if n := largest.Load(); n < 32<<10 {
		t.Errorf("largest peer frame %d bytes, want several times the buffers", n)
	} else {
		t.Logf("largest peer frame %d bytes through 4 KiB socket buffers", n)
	}
}

// sizeConn notes the largest single write through it.
type sizeConn struct {
	net.Conn
	largest *atomic.Int64
}

func (c *sizeConn) Write(b []byte) (int, error) {
	for n := c.largest.Load(); int64(len(b)) > n && !c.largest.CompareAndSwap(n, int64(len(b))); n = c.largest.Load() {
	}
	return c.Conn.Write(b)
}

// TestPeerListenerClosed: a shard's peer listener takes its peers and
// closes before the first round, so a dialer that comes later is refused
// by the kernel. Shard 0 of three dials no one: both its peer links were
// accepted, on the listener's address, which each link's first write (a
// ROUND, once the mesh is up) tries to dial again.
func TestPeerListenerClosed(t *testing.T) {
	var probed, refused atomic.Int32
	t.Cleanup(transport.SetPeerConnHook(func(shard int, conn net.Conn) net.Conn {
		if shard != 0 {
			return conn
		}
		return &lateDialConn{Conn: conn, probed: &probed, refused: &refused}
	}))
	tcp := transport.TCP{Shards: 3, Timeout: 10 * time.Second, Spawn: goroutineSpawner(nil)}
	if _, err := tcp.Run(suiteSpecs(1)[4], transport.Options{}); err != nil {
		t.Fatal(err)
	}
	if p, r := probed.Load(), refused.Load(); p != 2 || r != 2 {
		t.Errorf("%d late dials of shard 0's peer listener, %d refused; want 2 and 2", p, r)
	}
}

// lateDialConn dials its own local address once, at its first write.
type lateDialConn struct {
	net.Conn
	once            sync.Once
	probed, refused *atomic.Int32
}

func (c *lateDialConn) Write(b []byte) (int, error) {
	c.once.Do(func() {
		c.probed.Add(1)
		if late, err := net.Dial("tcp", c.LocalAddr().String()); err != nil {
			c.refused.Add(1)
		} else {
			late.Close()
		}
	})
	return c.Conn.Write(b)
}
