package transport_test

// The protocol state machine under a misbehaving peer. scriptConn sits
// between DialShard and ServeShard (wrappedSpawner's slot, so no product
// hook exists for it), reassembles the shard's outbound byte stream into
// frames and lets a script decide each frame's fate: forwarded in
// one-byte writes, held back forever, cut before / inside / after,
// retyped, duplicated, or rewritten. On top of it:
//
//   - TestSeverAtEveryFrameBoundary cuts shard 1's connection at every
//     frame boundary of a short run, for four workloads and two shard
//     counts, and demands what ROADMAP's robustness bullet promises of
//     every failure: an attributed error well inside the deadline, a
//     schema-valid -obsout, no goroutine left behind, no partial file.
//   - TestScriptedPeer runs the named misbehaviours one by one.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/transport"
)

// cutMode is where, relative to one outbound frame, the connection dies.
type cutMode int

const (
	cutNone   cutMode = iota
	cutBefore         // at the frame boundary before it: the request was read, no reply byte leaves
	cutMid            // inside it: half its bytes leave
	cutAfter          // at the frame boundary after it: the whole reply leaves, then the close
)

func (m cutMode) String() string { return [...]string{"none", "before", "mid", "after"}[m] }

// fate is a script's decision for one outbound frame; the zero fate
// forwards the frame untouched.
type fate struct {
	cut     cutMode
	stall   bool                     // forward nothing more and hold the connection open until the peer closes it
	typ     byte                     // nonzero: retype the frame
	rewrite func(body []byte) []byte // non-nil: replace the payload
	copies  int                      // > 1: forward the frame that many times
	dribble bool                     // forward one byte per Write
}

// script decides the fate of shard-to-coordinator frame k (0 = HELLO).
type script func(k int, typ byte, body []byte) fate

// scriptConn applies a script to everything written through it. Reads
// pass through: the coordinator's requests reach ServeShard unchanged.
type scriptConn struct {
	net.Conn
	script script
	pend   []byte // written bytes not yet a whole frame
	k      int
}

var errScripted = errors.New("scripted peer: connection cut")

func (c *scriptConn) Write(b []byte) (int, error) {
	c.pend = append(c.pend, b...)
	for len(c.pend) >= 4 {
		size := int(binary.BigEndian.Uint32(c.pend)) // type byte + payload
		if len(c.pend) < 4+size {
			break
		}
		typ, body := c.pend[4], c.pend[5:4+size]
		f := c.script(c.k, typ, body)
		c.k++
		if err := c.forward(f, typ, body); err != nil {
			return 0, err
		}
		c.pend = c.pend[4+size:]
	}
	return len(b), nil
}

func (c *scriptConn) forward(f fate, typ byte, body []byte) error {
	if f.cut == cutBefore {
		c.Conn.Close()
		return errScripted
	}
	if f.stall {
		// Returns once the coordinator gives up and closes its end, so the
		// shard goroutine ends with the run instead of outliving it.
		io.Copy(io.Discard, c.Conn)
		return errScripted
	}
	if f.typ != 0 {
		typ = f.typ
	}
	if f.rewrite != nil {
		body = f.rewrite(body)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)+1))
	frame = append(append(frame, typ), body...)
	if f.cut == cutMid {
		c.Conn.Write(frame[:len(frame)/2])
		c.Conn.Close()
		return errScripted
	}
	for i := 0; i < max(1, f.copies); i++ {
		step := len(frame)
		if f.dribble {
			step = 1
		}
		for off := 0; off < len(frame); off += step {
			if _, err := c.Conn.Write(frame[off:min(off+step, len(frame))]); err != nil {
				return err
			}
		}
	}
	if f.cut == cutAfter {
		c.Conn.Close()
		return errScripted
	}
	return nil
}

// onNth is the script that applies f to the n-th frame of type want and
// forwards everything else.
func onNth(want byte, n int, f fate) script {
	seen := 0
	return func(_ int, typ byte, _ []byte) fate {
		if typ == want {
			if seen++; seen == n {
				return f
			}
		}
		return fate{}
	}
}

// scriptedTCP is a goroutine-mode TCP backend whose shard `victim` speaks
// through s; every other shard is honest.
func scriptedTCP(shards, victim int, timeout time.Duration, obsOut string, s script) transport.TCP {
	return transport.TCP{
		Shards:  shards,
		Timeout: timeout,
		ObsOut:  obsOut,
		Spawn: wrappedSpawner(nil, func(shard int, conn net.Conn) net.Conn {
			if shard != victim {
				return conn
			}
			return &scriptConn{Conn: conn, script: s}
		}),
	}
}

// settleGoroutines waits for the goroutine count to come back down to
// base: shard goroutines exit a moment after their Wait is answered.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before the run:\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// wholeFiles asserts harness.WriteFile's rule on everything a run left in
// dir: each file is one complete JSON document — complete or absent, never
// truncated.
func wholeFiles(t *testing.T, dir, what string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Errorf("%s: %s is not one whole JSON document (%d bytes)", what, e.Name(), len(b))
		}
	}
}

// sweepSpecs are the sweep's short runs: a lifecycle-only workload, the
// message-bound and the round-bound one, and one with a fault plan. Sized
// by frame count — GHS on four nodes is already 37 rounds — because every
// frame costs three runs per shard count.
func sweepSpecs() []transport.Spec {
	return []transport.Spec{
		{Workload: "ticker", Graph: "ring", N: 8, Steps: 3, SrcSeed: 91},
		{Workload: "walks", Graph: "rr", N: 12, D: 4, K: 1, Steps: 3, Seed: 1, SrcSeed: 81},
		{Workload: "ghs", Graph: "ring", N: 4, SrcSeed: 71, WeightSeed: 8},
		{Workload: "walks-faults", Graph: "rr", N: 12, D: 4, K: 1, Steps: 3, Seed: 1, SrcSeed: 81,
			FaultSpec: "drop=0.05,delay=0.1:2", FaultSeed: 3},
	}
}

func TestSeverAtEveryFrameBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("784 runs; make transport-suite runs it whole")
	}
	const timeout = 10 * time.Second
	for _, spec := range sweepSpecs() {
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/shards%d", spec.Workload, shards), func(t *testing.T) {
				// Census: the frames shard 1 sends on a clean run. It writes
				// -obsout too, so the process-wide os/signal goroutine exists
				// before severAt takes its first goroutine count.
				var frames []byte
				dir := t.TempDir()
				census := scriptedTCP(shards, 1, timeout, filepath.Join(dir, "obs.json"), func(k int, typ byte, _ []byte) fate {
					frames = append(frames, typ)
					return fate{}
				})
				if _, err := census.Run(spec, transport.Options{}); err != nil {
					t.Fatalf("clean run through the scripted conn: %v", err)
				}
				wholeFiles(t, dir, "clean run")
				runs := 0
				for k, typ := range frames {
					for _, mode := range []cutMode{cutBefore, cutMid, cutAfter} {
						if mode == cutAfter && k == len(frames)-1 {
							continue // nothing follows TELEMETRY: a cut there is a clean finish
						}
						severAt(t, spec, shards, k, typ, mode, timeout)
						runs++
					}
				}
				t.Logf("%d frames from shard 1, %d severed runs", len(frames), runs)
			})
		}
	}
}

// severAt runs spec with shard 1's connection cut at frame k and checks
// the four promises.
func severAt(t *testing.T, spec transport.Spec, shards, k int, typ byte, mode cutMode, timeout time.Duration) {
	t.Helper()
	what := fmt.Sprintf("cut %s frame %d (%s)", mode, k, transport.FrameName(typ))
	dir := t.TempDir()
	out := filepath.Join(dir, "obs.json")
	base := runtime.NumGoroutine()
	tcp := scriptedTCP(shards, 1, timeout, out, func(i int, _ byte, _ []byte) fate {
		if i == k {
			return fate{cut: mode}
		}
		return fate{}
	})
	start := time.Now()
	_, err := tcp.Run(spec, transport.Options{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("%s: run reported success", what)
	}
	if elapsed > timeout/2 {
		t.Errorf("%s: took %v to surface, want well inside the %v deadline", what, elapsed, timeout)
	}
	d := readObsFile(t, out)
	if handshake := k == 0 && mode != cutAfter; handshake {
		// Before a whole HELLO arrives the coordinator cannot know which
		// shard it lost: the error names the handshake instead.
		if d.GuiltyShard != -1 || !strings.Contains(err.Error(), "handshake") {
			t.Errorf("%s: err = %v, guilty shard %d; want an unattributed handshake error", what, err, d.GuiltyShard)
		}
	} else if d.GuiltyShard != 1 || d.Phase == "" || !strings.Contains(err.Error(), "transport: shard 1:") {
		t.Errorf("%s: err = %v, obs blames shard %d in phase %q; want shard 1 attributed", what, err, d.GuiltyShard, d.Phase)
	}
	wholeFiles(t, dir, what)
	settleGoroutines(t, base, what)
}

// TestScriptedPeer runs the single misbehaviours: each must end the way
// its row says — a clean byte-identical run for the harmless one, an
// attributed error naming the phase for the rest.
func TestScriptedPeer(t *testing.T) {
	spec := suiteSpecs(1)[4]                                          // walks
	at := func(want byte, f fate) script { return onNth(want, 2, f) } // the second one: a round is already behind us
	cases := []struct {
		name    string
		script  script
		wantErr []string // empty: the run must succeed
		timeout bool
	}{
		{"partial writes", func(int, byte, []byte) fate { return fate{dribble: true} }, nil, false},
		{"stall", at(transport.FrameStepped, fate{stall: true}),
			[]string{"transport: shard 1: read", "phase step-wait", "last frame DELIVERED"}, true},
		{"close mid-frame", at(transport.FrameDelivered, fate{cut: cutMid}),
			[]string{"transport: shard 1: read", "phase deliver-wait", "last frame STEPPED"}, false},
		{"close at a frame boundary", at(transport.FrameStepped, fate{cut: cutBefore}),
			[]string{"transport: shard 1: read", "phase step-wait", "last frame DELIVERED"}, false},
		{"wrong wire version", func(k int, _ byte, _ []byte) fate {
			if k != 0 {
				return fate{}
			}
			return fate{rewrite: func(b []byte) []byte { return append([]byte{b[0] + 1}, b[1:]...) }}
		}, []string{"protocol version mismatch"}, false},
		{"out-of-phase frame", at(transport.FrameStepped, fate{typ: transport.FrameDelivered}),
			[]string{"transport: shard 1: read", "want STEPPED", "phase step-wait"}, false},
		{"duplicate frame", at(transport.FrameDelivered, fate{copies: 2}),
			[]string{"transport: shard 1: read", "want STEPPED", "phase step-wait"}, false},
	}
	want, wantRes := traceRun(t, transport.Proc{Workers: 1}, spec, "scripted")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			timeout := 10 * time.Second
			if tc.timeout {
				timeout = time.Second // the deadline itself has to fire
			}
			tcp := scriptedTCP(2, 1, timeout, "", tc.script)
			if tc.wantErr == nil {
				got, gotRes := traceRun(t, tcp, spec, "scripted")
				if !bytes.Equal(want, got) {
					t.Errorf("trace bytes diverge from the sequential engine")
				}
				sameResult(t, tc.name, wantRes, gotRes)
				settleGoroutines(t, base, tc.name)
				return
			}
			_, err := tcp.Run(spec, transport.Options{})
			if err == nil {
				t.Fatal("run reported success")
			}
			for _, s := range tc.wantErr {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("err = %v, want it to contain %q", err, s)
				}
			}
			var nerr net.Error
			if isTimeout := errors.As(err, &nerr) && nerr.Timeout(); isTimeout != tc.timeout {
				t.Errorf("err = %v: timeout = %v, want %v", err, isTimeout, tc.timeout)
			}
			settleGoroutines(t, base, tc.name)
		})
	}
}

// uv encodes vals as concatenated uvarints — every reply body is one.
func uv(vals ...uint64) []byte {
	var buf []byte
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// crossingPort returns a port of a node below lo whose neighbor is at or
// above it: a receiver port of shard 0 that shard 1's node sends over.
func crossingPort(t *testing.T, g *graph.Graph, lo int) (dst, port int) {
	t.Helper()
	for v := 0; v < lo; v++ {
		for p, h := range g.Neighbors(v) {
			if int(h.To) >= lo {
				return v, p
			}
		}
	}
	t.Fatal("no edge crosses the shard boundary")
	return -1, -1
}

// TestHostileReplies: a reply whose fields point outside the graph or
// contradict each other must end the run in an error naming shard 1, the
// phase and the field — the coordinator indexes its own arrays with these
// numbers, so before the absorb checks the first and the two DELIVERED
// rows were index panics and the rest were silently absorbed. A reply
// naming one receiver port twice used to be relayed, and the run failed
// against the innocent receiving shard.
func TestHostileReplies(t *testing.T) {
	spec := suiteSpecs(1)[4] // walks on rr(32, 4): shard 1 of 2 owns nodes [16, 32)
	const owned = 16
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	dst, port := crossingPort(t, g, owned)
	// One well-formed walk token (steps left, origin, sequence) over that port.
	send := uv(uint64(dst), uint64(port), 3, 1, uint64(g.Neighbors(dst)[port].To), 0)
	stepped := func(halted uint64, tail ...uint64) []byte {
		return uv(append([]uint64{0, halted, 0, 0, 0, 0}, tail...)...) // active, halted, four fault counts
	}
	delivered := func(total uint64, first ...uint64) []byte {
		body := uv(total, 0) // delivered, pending
		body = append(body, uv(first...)...)
		return append(body, make([]byte, owned-1)...) // the other owned nodes: empty inboxes
	}
	cases := []struct {
		name  string
		typ   byte
		body  []byte
		phase string
		field string
	}{
		{"STEPPED send dst beyond n", transport.FrameStepped, stepped(0, 0, 1, 37, 0, 0), "step-wait", "send dst 37"},
		{"STEPPED send port beyond degree", transport.FrameStepped, stepped(0, 0, 1, 3, 99, 0), "step-wait", "send dst 3 port 99"},
		{"STEPPED send that is not the shard's to make", transport.FrameStepped, stepped(0, 0, 1, 20, 0, 0), "step-wait", "send dst 20 port 0 is the edge from node"},
		{"STEPPED halted beyond owned", transport.FrameStepped, stepped(owned+1, 0, 0), "step-wait", "halted 17"},
		{"STEPPED event outside the shard", transport.FrameStepped, stepped(0, 1, 1, 3, 2, 0), "step-wait", "event node 3"},
		{"INITACK send dst beyond n", transport.FrameInitAck, stepped(0, 0, 1, 1<<40, 0, 0), "init-wait", "send dst"},
		{"STEPPED send port named twice", transport.FrameStepped, slices.Concat(stepped(0, 0, 2), send, send), "step-wait",
			fmt.Sprintf("send dst %d port %d named twice", dst, port)},
		{"DELIVERED port beyond degree", transport.FrameDelivered, delivered(1, 1, 1<<20), "deliver-wait", "inbox port 1048576"},
		{"DELIVERED sizes not summing", transport.FrameDelivered, delivered(5, 0), "deliver-wait", "delivered 5"},
		{"TELEMETRY row of another endpoint", transport.FrameTelemetry, []byte(`{"endpoint":"coord","shard":0}`), "harvest", "telemetry row of coord 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			nth := 2 // a round is already behind us
			if tc.typ == transport.FrameInitAck || tc.typ == transport.FrameTelemetry {
				nth = 1 // there is only one
			}
			tcp := scriptedTCP(2, 1, 10*time.Second, "", onNth(tc.typ, nth, fate{rewrite: func([]byte) []byte { return tc.body }}))
			// A probe is attached: the DELIVERED profile feeds its aggregator.
			_, err := tcp.Run(spec, transport.Options{Probe: congest.NewTraceSink().Label("hostile")})
			if err == nil {
				t.Fatal("run reported success")
			}
			for _, want := range []string{"transport: shard 1: reply:", "phase " + tc.phase, tc.field} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want it to contain %q", err, want)
				}
			}
			settleGoroutines(t, base, tc.name)
		})
	}
}

// TestHostileRelayedPayload: the coordinator relays payload bytes unread,
// so what is wrong with them is found by the shard they are relayed to —
// and must be found there, as a protocol error naming that shard, never
// staged: a record of the reserved empty kind would sit in the outbox
// arena as "no message" and the send would silently vanish. Shard 1's
// second STEPPED is rewritten to carry one send over a real boundary edge
// with the row's payload; shard 0 must refuse it in its workload's Decode
// and end, which the coordinator reports against shard 0.
func TestHostileRelayedPayload(t *testing.T) {
	specs := suiteSpecs(1)
	ghs, walks := specs[3], specs[4]
	cases := []struct {
		name    string
		spec    transport.Spec
		payload []byte
		want    string
	}{
		{"walks/empty payload", walks, nil, "malformed walk payload"},
		{"walks/field wider than the record", walks, uv(1, 1<<40, 0), "malformed walk payload"},
		{"ghs/tag of the empty record", ghs, []byte{0}, "unknown GHS payload tag 0"},
		{"ghs/kind the codec does not own", ghs, []byte{9}, "unknown GHS payload tag 9"},
		{"ghs/stamp with nothing under it", ghs, []byte{6, 2}, "empty GHS payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := transport.BuildGraph(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			lo1, _ := congest.Split{N: g.N(), K: 2}.Bounds(1)
			dst, port := crossingPort(t, g, lo1)
			body := uv(0, 0, 0, 0, 0, 0, 0, 1, uint64(dst), uint64(port), uint64(len(tc.payload)))
			body = append(body, tc.payload...)

			base := runtime.NumGoroutine()
			tcp := scriptedTCP(2, 1, 10*time.Second, "", onNth(transport.FrameStepped, 2, fate{rewrite: func([]byte) []byte { return body }}))
			// Keep what each shard's ServeShard returned: the coordinator
			// only sees shard 0 hang up.
			var shardErrs [2]error
			spawn := tcp.Spawn
			tcp.Spawn = func(shard int, addr string) (transport.ShardHandle, error) {
				h, err := spawn(shard, addr)
				wait := h.Wait
				h.Wait = func() error {
					shardErrs[shard] = wait()
					return shardErrs[shard]
				}
				return h, err
			}
			_, err = tcp.Run(tc.spec, transport.Options{})
			if err == nil || !strings.Contains(err.Error(), "transport: shard 0:") {
				t.Fatalf("coordinator err = %v, want a failure attributed to shard 0", err)
			}
			settleGoroutines(t, base, tc.name)
			for _, want := range []string{"transport: shard 0: decoding relayed payload", tc.want} {
				if shardErrs[0] == nil || !strings.Contains(shardErrs[0].Error(), want) {
					t.Errorf("shard 0 ended with %v, want it to contain %q", shardErrs[0], want)
				}
			}
		})
	}
}
