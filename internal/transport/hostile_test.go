package transport_test

// The protocol state machine under a misbehaving peer. scriptConn sits
// on one of a shard's connections — its coordinator link, between
// DialShard and ServeShard (wrappedSpawner's slot), or a peer link
// (transport.SetPeerConnHook) — reassembles the shard's outbound byte
// stream into frames and lets a script decide each frame's fate:
// forwarded in one-byte writes, held back forever, cut before / inside /
// after, retyped, duplicated, or rewritten. On top of it:
//
//   - TestSeverAtEveryFrameBoundary cuts shard 1's coordinator link, and
//     then its first peer link, at every frame boundary of a short run, for
//     five workloads and two shard counts, and demands what ROADMAP's
//     robustness bullet promises of every failure: an attributed error
//     well inside the deadline, a schema-valid -obsout, no goroutine left
//     behind, no partial file.
//   - TestScriptedPeer runs the named misbehaviours one by one.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/flightrec"
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
// pass through. A stalled coordinator link holds until the coordinator
// closes it; a stalled peer link, until its shard closes it (a peer link
// is read on another goroutine, whose bytes a stall must not take).
type scriptConn struct {
	net.Conn
	script script
	peer   bool
	pend   []byte // written bytes not yet a whole frame
	k      int
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(conn net.Conn, s script, peer bool) *scriptConn {
	return &scriptConn{Conn: conn, script: s, peer: peer, closed: make(chan struct{})}
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
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
		c.Close()
		return errScripted
	}
	if f.stall {
		// Returns once the run's end closes the link, so the shard goroutine
		// ends with the run instead of outliving it.
		if c.peer {
			<-c.closed
		} else {
			io.Copy(io.Discard, c.Conn)
		}
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
		c.Close()
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
		c.Close()
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
// to the coordinator through s; every other shard is honest.
func scriptedTCP(shards, victim int, timeout time.Duration, obsOut string, s script) transport.TCP {
	return transport.TCP{
		Shards:  shards,
		Timeout: timeout,
		ObsOut:  obsOut,
		Spawn: wrappedSpawner(nil, func(shard int, conn net.Conn) net.Conn {
			if shard != victim {
				return conn
			}
			return newScriptConn(conn, s, false)
		}),
	}
}

// scriptPeer makes shard `victim` speak through s on the first peer link
// it opens (at shard 1, the link to shard 0) for the rest of the test.
func scriptPeer(t *testing.T, victim int, s script) {
	var mu sync.Mutex
	opened := false
	t.Cleanup(transport.SetPeerConnHook(func(shard int, conn net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		if shard != victim || opened {
			return conn
		}
		opened = true
		return newScriptConn(conn, s, true)
	}))
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
// message-bound and the round-bound one, one with a fault plan, and BFS
// along an 8-node path, whose far shards hold steps back and send SENDS.
// Sized by frame count — GHS on four nodes is already 37 rounds — because
// every frame costs three runs per shard count and link.
func sweepSpecs() []transport.Spec {
	return []transport.Spec{
		{Workload: "ticker", Graph: "ring", N: 8, Steps: 3, SrcSeed: 91},
		{Workload: "walks", Graph: "rr", N: 12, D: 4, K: 1, Steps: 3, Seed: 1, SrcSeed: 81},
		{Workload: "ghs", Graph: "ring", N: 4, SrcSeed: 71, WeightSeed: 8},
		{Workload: "walks-faults", Graph: "rr", N: 12, D: 4, K: 1, Steps: 3, Seed: 1, SrcSeed: 81,
			FaultSpec: "drop=0.05,delay=0.1:2", FaultSeed: 3},
		{Workload: "bfs", Graph: "lollipop", N: 1, D: 7, SrcSeed: 61},
	}
}

func TestSeverAtEveryFrameBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of runs; make transport-suite runs it whole")
	}
	const timeout = 10 * time.Second
	for _, spec := range sweepSpecs() {
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/shards%d", spec.Workload, shards), func(t *testing.T) {
				for _, link := range []string{"coord", "peer"} {
					t.Run(link, func(t *testing.T) { severEveryFrame(t, spec, shards, link, timeout) })
				}
			})
		}
	}
}

// severEveryFrame takes the census of the frames shard 1 sends over the
// link on a clean run, then cuts the link before, inside and after each.
func severEveryFrame(t *testing.T, spec transport.Spec, shards int, link string, timeout time.Duration) {
	// The census run writes -obsout too, so the process-wide os/signal
	// goroutine exists before severAt takes its first goroutine count.
	var mu sync.Mutex
	var frames []byte
	dir := t.TempDir()
	census := sweepTCP(t, shards, link, timeout, filepath.Join(dir, "obs.json"), func(k int, typ byte, _ []byte) fate {
		mu.Lock()
		defer mu.Unlock()
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
				continue // nothing follows the last frame: a cut there may be a clean finish
			}
			severAt(t, spec, shards, link, k, typ, mode, timeout)
			runs++
		}
	}
	t.Logf("%d frames from shard 1, %d severed runs", len(frames), runs)
}

// sweepTCP scripts shard 1's coordinator link or, for link "peer", its
// first peer link.
func sweepTCP(t *testing.T, shards int, link string, timeout time.Duration, obsOut string, s script) transport.TCP {
	if link == "coord" {
		return scriptedTCP(shards, 1, timeout, obsOut, s)
	}
	scriptPeer(t, 1, s)
	return transport.TCP{Shards: shards, Timeout: timeout, ObsOut: obsOut, Spawn: goroutineSpawner(nil)}
}

// severAt runs spec with shard 1's link cut at frame k and checks the four
// promises. A cut coordinator link is shard 1's; a cut peer link is seen
// from both of its ends, and either may be named.
func severAt(t *testing.T, spec transport.Spec, shards int, link string, k int, typ byte, mode cutMode, timeout time.Duration) {
	t.Helper()
	what := fmt.Sprintf("cut %s %s frame %d (%s)", mode, link, k, transport.FrameName(typ))
	dir := t.TempDir()
	out := filepath.Join(dir, "obs.json")
	base := runtime.NumGoroutine()
	tcp := sweepTCP(t, shards, link, timeout, out, func(i int, _ byte, _ []byte) fate {
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
	named := d.GuiltyShard == 1 || link == "peer" && d.GuiltyShard == 0
	if handshake := link == "coord" && k == 0 && mode != cutAfter; handshake {
		// Before a whole HELLO arrives the coordinator cannot know which
		// shard it lost: the error names the handshake instead.
		if d.GuiltyShard != -1 || !strings.Contains(err.Error(), "handshake") {
			t.Errorf("%s: err = %v, guilty shard %d; want an unattributed handshake error", what, err, d.GuiltyShard)
		}
	} else if !named || d.Phase == "" || !strings.Contains(err.Error(), fmt.Sprintf("transport: shard %d:", d.GuiltyShard)) {
		t.Errorf("%s: err = %v, obs blames shard %d in phase %q; want shard 1 (or its peer) attributed", what, err, d.GuiltyShard, d.Phase)
	}
	wholeFiles(t, dir, what)
	settleGoroutines(t, base, what)
}

// TestScriptedPeer runs the single misbehaviours: each must end the way
// its row says — a clean byte-identical run for the harmless ones, an
// attributed error naming the phase for the rest. The peer rows script
// shard 1's link to shard 0; the last three are stray dialers of shard 0's
// peer listener at three shards — shard 2's hello to shard 0 rewritten to
// carry another run's token, another wire version, or shard 1's index.
func TestScriptedPeer(t *testing.T) {
	spec := suiteSpecs(1)[4] // walks
	// the third ROUND, of round 2: a round is already behind us
	atRound := func(f fate) script { return onNth(transport.FrameRound, 3, f) }
	hello := func(rewrite func([]byte) []byte) script {
		return func(k int, _ byte, _ []byte) fate {
			if k != 0 {
				return fate{}
			}
			return fate{rewrite: rewrite}
		}
	}
	dribble := func(int, byte, []byte) fate { return fate{dribble: true} }
	refused := []string{"transport: shard 0: peer handshake", "shard 0 reports: refused", "phase init"}
	cases := []struct {
		name    string
		link    string // "coord" or "peer"
		shards  int
		victim  int
		script  script
		wantErr []string // empty: the run must succeed
		timeout bool
	}{
		{"partial writes", "coord", 2, 1, dribble, nil, false},
		{"partial peer writes", "peer", 2, 1, dribble, nil, false},
		// A link that stalls one way leaves both ends waiting: either may
		// name the other.
		{"stall", "peer", 2, 1, atRound(fate{stall: true}),
			[]string{": read: shard ", "phase peer-wait", "last frame ROUND", "i/o timeout"}, true},
		{"close mid-frame", "peer", 2, 1, atRound(fate{cut: cutMid}),
			[]string{"transport: shard 1: read", "phase peer-wait", "last completed round 1", "last frame ROUND"}, false},
		{"close at a frame boundary", "peer", 2, 1, atRound(fate{cut: cutBefore}),
			[]string{"transport: shard 1: read", "phase peer-wait", "last frame ROUND"}, false},
		{"wrong wire version", "coord", 2, 1, hello(func(b []byte) []byte { return append([]byte{b[0] + 1}, b[1:]...) }),
			[]string{"protocol version mismatch"}, false},
		{"out-of-phase frame", "peer", 2, 1, atRound(fate{typ: transport.FrameSends}),
			[]string{"transport: shard 1: read", "frame type SENDS, want ROUND", "phase peer-wait"}, false},
		// Every round opens with the same frame type, so a repeated frame is
		// caught by the round it names.
		{"duplicate frame", "peer", 2, 1, atRound(fate{copies: 2}),
			[]string{"transport: shard 1: reply", "ROUND of round 2 in round 3", "phase peer-wait"}, false},
		{"stray dialer with another run's token", "peer", 3, 2, hello(func(b []byte) []byte {
			c := slices.Clone(b)
			c[2] ^= 1 // the token's first byte: version and index take one each
			return c
		}), append(refused, "run token"), false},
		{"stray dialer with another wire version", "peer", 3, 2, hello(func(b []byte) []byte { return append([]byte{b[0] + 1}, b[1:]...) }),
			append(refused, "protocol version mismatch"), false},
		{"stray dialer with a taken index", "peer", 3, 2, hello(func(b []byte) []byte { return append([]byte{b[0], 1}, b[2:]...) }),
			append(refused, "peer index 1 (bad, or taken)"), false},
	}
	want, wantRes := traceRun(t, transport.Proc{Workers: 1}, spec, "scripted")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			timeout := 10 * time.Second
			if tc.timeout {
				timeout = time.Second // the deadline itself has to fire
			}
			tcp := transport.TCP{Shards: tc.shards, Timeout: timeout, Spawn: goroutineSpawner(nil)}
			if tc.link == "coord" {
				tcp = scriptedTCP(tc.shards, tc.victim, timeout, "", tc.script)
			} else {
				scriptPeer(t, tc.victim, tc.script)
			}
			if tc.wantErr == nil {
				got, gotRes := traceRun(t, tcp, spec, "scripted")
				if !bytes.Equal(want, got) {
					t.Errorf("trace bytes diverge from the sequential engine")
				}
				sameResult(t, tc.name, wantRes, gotRes)
				settleGoroutines(t, base, tc.name)
				return
			}
			start := time.Now()
			_, err := tcp.Run(spec, transport.Options{})
			if err == nil {
				t.Fatal("run reported success")
			}
			if elapsed := time.Since(start); elapsed > 2*timeout {
				t.Errorf("took %v to surface, want within two %v timeouts", elapsed, timeout)
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

// TestPeerThatDoesNotJump: when every shard's nodes sleep with nothing in
// flight, all of them jump to the same later round. Shard 1's first ROUND
// after such a jump on GHS is rewritten to name the round after its last
// one, as if it had announced its wake and then not jumped: shard 0 must
// refuse the frame as soon as it reads it, naming shard 1 in phase
// peer-wait, well within two timeouts.
func TestPeerThatDoesNotJump(t *testing.T) {
	base := runtime.NumGoroutine()
	last, want := -1, ""
	scriptPeer(t, 1, func(_ int, typ byte, body []byte) fate {
		round, n := binary.Uvarint(body)
		if typ != transport.FrameRound || want != "" {
			return fate{}
		}
		if last < 0 || int(round) == last+1 {
			last = int(round)
			return fate{}
		}
		want = fmt.Sprintf("ROUND of round %d in round %d", last+1, round)
		return fate{rewrite: func(b []byte) []byte { return append(uv(uint64(last+1)), b[n:]...) }}
	})
	const timeout = 10 * time.Second
	start := time.Now()
	_, err := transport.TCP{Shards: 2, Timeout: timeout, Spawn: goroutineSpawner(nil)}.Run(suiteSpecs(1)[3], transport.Options{})
	if want == "" {
		t.Fatalf("no round was skipped (err = %v)", err)
	}
	if err == nil {
		t.Fatal("run reported success")
	}
	for _, s := range []string{"transport: shard 1: reply", want, "phase peer-wait"} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("err = %v, want it to contain %q", err, s)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*timeout {
		t.Errorf("took %v to surface, want within two %v timeouts", elapsed, timeout)
	}
	settleGoroutines(t, base, "peer that does not jump")
}

// uv encodes vals as concatenated uvarints — every reply body is one.
func uv(vals ...uint64) []byte {
	var buf []byte
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// crossings returns the length of the crossing list from shard 1 to
// shard 0 when shard 1 owns the nodes from lo up: the ports of those nodes
// that face a node below lo.
func crossings(g *graph.Graph, lo int) (n int) {
	for v := lo; v < g.N(); v++ {
		for _, h := range g.Neighbors(v) {
			if int(h.To) < lo {
				n++
			}
		}
	}
	return n
}

// TestHostileReplies: a frame whose fields point outside the graph or
// contradict each other must end the run in an error naming shard 1, the
// phase and the field — its receiver indexes its own arrays with these
// numbers. Peer frames are checked by the shard that reads them, against
// the peer that sent them: shard 1's third ROUND (round 2) on walks, whose
// every shard steps at once (shard 1 of 2 owns nodes [16, 32)), its SENDS
// on the path BFS, whose far shard holds its early steps back (shard 1 of 2
// owns nodes [8, 16) and delivers nothing before round 8), and its round-0
// ROUND, which carries Init's sends. A send in an overlong form is refused:
// a frame reads one way only. The coordinator checks what shards tell it:
// a REPORT (with a probe), INITACK and TELEMETRY.
func TestHostileReplies(t *testing.T) {
	spec, path, ghs := suiteSpecs(1)[4], pathBFS(0), &suiteSpecs(1)[3]
	const owned, pathOwned = 16, 8
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	pathG, err := transport.BuildGraph(*path)
	if err != nil {
		t.Fatal(err)
	}
	// A send needs no address, only its gap in the pair's crossing list:
	// a well-formed walk token (steps left, origin, sequence) on walks, a
	// distance on the path BFS, whose one crossing edge is 8–7. A gap of
	// the list's length runs past it, and a gap of 2⁶⁴−1 after a send
	// would wrap the index back onto that send's slot.
	token, dist := uv(3, 1, 0), uv(5)
	past, pathPast := uint64(crossings(g, owned)), uint64(crossings(pathG, pathOwned))
	const wrap = math.MaxUint64
	send := func(gap uint64, payload []byte) []byte { return append(uv(gap), payload...) }
	pastField := func(gap, left, of uint64) string {
		return fmt.Sprintf("send gap %d names no crossing port: %d of %d follow the last send", gap, left, of)
	}
	// round2 is shard 1's ROUND of round 2 on walks: delivered, none
	// pending, the stepped flag and the step, if any (halted, wake, sends).
	round2 := func(delivered uint64, step []byte) []byte {
		if step == nil {
			return append(uv(2, delivered, 0), 0)
		}
		return append(append(uv(2, delivered, 0), 1), step...)
	}
	badFlag := round2(1, nil)
	badFlag[len(badFlag)-1] = 2
	// a gap in an overlong form: 0 is one byte, and 0x80, 0x00 reads as
	// the same number.
	overlong := slices.Concat([]byte{0x80, 0}, token)
	head := func(active, halted uint64, events ...uint64) []byte {
		return uv(append([]uint64{active, halted, 0, 0, 0, 0}, events...)...) // four fault counts
	}
	// report is shard 1's REPORT of round 2: no rounds skipped, the total,
	// the first owned node's inbox (size, ports), the other owned nodes'
	// empty ones, the head.
	report := func(total uint64, first []uint64, h []byte) []byte {
		body := append(uv(2, 0, total), uv(first...)...)
		return append(append(body, make([]byte, owned-1)...), h...)
	}
	type hostileCase struct {
		name  string
		spec  *transport.Spec // nil: walks
		typ   byte
		nth   int
		body  []byte
		phase string
		field string
	}
	// Rows keep the names they had when the coordinator relayed every send:
	// a DELIVERED row now rewrites the ROUND that carries the step in its
	// place, or the REPORT that carries the inbox profile; a STEPPED row the
	// SENDS of a held step, or the REPORT that carries the events; and the
	// INITACK send row the round-0 ROUND that carries Init's sends. The send
	// rows keep the names they had before wireVersion 14, when a send named
	// its receiver and port: each now names its slot by a gap that leaves
	// the crossing list — past its end (dst beyond n; port beyond degree,
	// by a second send), wrapped around from its start (not the shard's to
	// make), or wrapped back onto a slot already named (named twice) — or
	// writes the gap in an overlong form.
	cases := []hostileCase{
		{"STEPPED send dst beyond n", path, transport.FrameSends, 1, slices.Concat(uv(2, 0, 0, 1), send(pathPast, dist)), "peer-wait", pastField(pathPast, pathPast, pathPast)},
		{"STEPPED send port beyond degree", path, transport.FrameSends, 1, slices.Concat(uv(2, 0, 0, 2), send(0, dist), send(pathPast-1, dist)), "peer-wait", pastField(pathPast-1, pathPast-1, pathPast)},
		{"STEPPED send that is not the shard's to make", path, transport.FrameSends, 1, slices.Concat(uv(2, 0, 0, 1), send(wrap, dist)), "peer-wait", pastField(wrap, pathPast, pathPast)},
		{"STEPPED send count beyond the sends present", path, transport.FrameSends, 1, slices.Concat(uv(2, 0, 0, 2), send(0, dist)), "peer-wait", "malformed send gap"},
		{"STEPPED bytes trailing the last send", path, transport.FrameSends, 1, slices.Concat(uv(2, 0, 0, 1), send(0, dist), []byte{0}), "peer-wait", "1 trailing bytes after peer frame"},
		{"STEPPED halted beyond owned", path, transport.FrameSends, 1, uv(2, pathOwned+1, 0, 0), "peer-wait", "halted 9"},
		{"STEPPED event outside the shard", nil, transport.FrameReport, 2, report(0, []uint64{0}, head(0, 0, 1, 1, 3, 2)), "rounds", "event node 3"},
		{"STEPPED send port named twice", path, transport.FrameSends, 1, slices.Concat(uv(2, 0, 0, 2), send(0, dist), send(wrap, dist)), "peer-wait", pastField(wrap, pathPast-1, pathPast)},
		{"INITACK send dst beyond n", nil, transport.FrameRound, 1, slices.Concat(uv(0, 0, 0, 1), uv(0, 0, 1), send(1<<40, token)), "peer-wait", pastField(1<<40, past, past)},
		{"DELIVERED step send dst beyond n", nil, transport.FrameRound, 3, round2(1, slices.Concat(uv(0, 0, 1), send(past, token))), "peer-wait", pastField(past, past, past)},
		{"DELIVERED step send port named twice", nil, transport.FrameRound, 3, round2(1, slices.Concat(uv(0, 0, 2), send(0, token), send(wrap, token))), "peer-wait", pastField(wrap, past-1, past)},
		{"DELIVERED step send count beyond the sends present", nil, transport.FrameRound, 3, round2(1, slices.Concat(uv(0, 0, 3), send(0, token), send(4, token))), "peer-wait", "malformed send gap"},
		{"DELIVERED step bytes trailing the last send", nil, transport.FrameRound, 3, round2(1, slices.Concat(uv(0, 0, 1), send(0, token), uv(7))), "peer-wait", "1 trailing bytes after peer frame"},
		{"DELIVERED port beyond degree", nil, transport.FrameReport, 2, report(1, []uint64{1, 1 << 20}, head(0, 0, 0)), "rounds", "inbox port 1048576"},
		{"DELIVERED sizes not summing", nil, transport.FrameReport, 2, report(5, []uint64{0}, head(0, 0, 0)), "rounds", "delivered 5"},
		{"DELIVERED stepped in a round that may be quiet", nil, transport.FrameRound, 3, round2(0, uv(0, 0, 0)), "peer-wait",
			"stepped in round 2, which delivered 0 with 0 delayed pending and may be quiet"},
		{"DELIVERED held back an owed step", nil, transport.FrameRound, 3, round2(1, nil), "peer-wait",
			"held its step in round 2, which delivered 1 with 0 delayed pending and cannot be quiet"},
		{"DELIVERED stepped flag beyond one", nil, transport.FrameRound, 3, badFlag, "peer-wait", "malformed peer stepped flag"},
		{"DELIVERED step send dst in an overlong form", nil, transport.FrameRound, 3, round2(1, slices.Concat(uv(0, 0, 1), overlong)), "peer-wait", "malformed send gap"},
		{"DELIVERED step wake in an overlong form", nil, transport.FrameRound, 3, round2(1, slices.Concat(uv(0), []byte{0x80, 0}, uv(0))), "peer-wait", "malformed peer wake"},
		// GHS's round-1 step sleeps every node to the next window: a round 2
		// that delivers nothing leaves that step a no-op, which sends nothing.
		{"DELIVERED slept through a round yet sent", ghs, transport.FrameRound, 3, slices.Concat(uv(2, 0, 0), []byte{1}, uv(0, 0, 1, 0, 0, 0)), "peer-wait",
			"slept through round 2 with nothing delivered, yet halted 0 nodes (0 before) and sent 1"},
		{"REPORT halted beyond owned", nil, transport.FrameReport, 2, report(0, []uint64{0}, head(0, owned+1, 0)), "rounds", "halted 17"},
		{"REPORT skip other than shard 0's", nil, transport.FrameReport, 2, uv(2, 3), "rounds", "REPORT skips 3 rounds after round 2, shard 0 0"},
		{"INITACK halted beyond owned", nil, transport.FrameInitAck, 1, head(0, owned+1, 0), "init", "halted 17"},
		{"TELEMETRY row of another endpoint", nil, transport.FrameTelemetry, 1, []byte(`{"endpoint":"coord","shard":0}`), "harvest", "telemetry row of coord 0"},
		// Without a timeline no round is timed, so a shard has no node
		// steps to count.
		{"TELEMETRY node steps beyond its timed rounds", nil, transport.FrameTelemetry, 1,
			[]byte(`{"endpoint":"shard","shard":1,"peer":{"endpoint":"peer","shard":1},"node_steps":5}`), "harvest", "counts 5 node steps in 0 timed rounds"},
	}
	// Without a probe INITACK is empty and no REPORT is sent, and a peer's
	// stepped flag is still held to its counts.
	unprobed := []hostileCase{
		{"unprobed INITACK carrying a step head", nil, transport.FrameInitAck, 1, head(0, 0, 0), "init", "trailing bytes"},
		{"unprobed DELIVERED stepped in a round that may be quiet", nil, transport.FrameRound, 3, round2(0, uv(0, 0, 0)), "peer-wait",
			"stepped in round 2, which delivered 0 with 0 delayed pending and may be quiet"},
		{"unprobed DELIVERED held back an owed step", nil, transport.FrameRound, 3, round2(1, nil), "peer-wait",
			"held its step in round 2, which delivered 1 with 0 delayed pending and cannot be quiet"},
	}
	for _, set := range []struct {
		probe bool
		cases []hostileCase
	}{{true, cases}, {false, unprobed}} {
		for _, tc := range set.cases {
			t.Run(tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				run := spec
				if tc.spec != nil {
					run = *tc.spec
				}
				s := onNth(tc.typ, tc.nth, fate{rewrite: func([]byte) []byte { return tc.body }})
				tcp := transport.TCP{Shards: 2, Timeout: 10 * time.Second, Spawn: goroutineSpawner(nil)}
				if tc.typ == transport.FrameRound || tc.typ == transport.FrameSends {
					scriptPeer(t, 1, s)
				} else {
					tcp = scriptedTCP(2, 1, 10*time.Second, "", s)
				}
				var opts transport.Options
				if set.probe {
					opts.Probe = congest.NewTraceSink().Label("hostile")
				}
				_, err := tcp.Run(run, opts)
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
	// TELEMETRY carries a flight dump exactly when SPEC asked for one, i.e.
	// for an -obsout run: shard 1 ships a well-formed dump of its own
	// unasked, and leaves out the one asked for.
	dump := flightrec.New("shard", 1, 4)
	dump.Record(flightrec.KindFrameSent, "FINAL", 3, -1, 40, "")
	shipped, err := json.Marshal(dump.Dump(flightrec.ReasonFinish))
	if err != nil {
		t.Fatal(err)
	}
	withDump := func(d json.RawMessage) func([]byte) []byte {
		return func(body []byte) []byte {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(body, &fields); err != nil {
				t.Errorf("TELEMETRY %q: %v", body, err)
			}
			if delete(fields, "flightrec"); d != nil {
				fields["flightrec"] = d
			}
			b, _ := json.Marshal(fields)
			return b
		}
	}
	// A clean -obsout run first, so the process-wide os/signal goroutine
	// exists before the cases take their goroutine counts.
	clean := transport.TCP{Shards: 2, Timeout: 10 * time.Second, Spawn: goroutineSpawner(nil), ObsOut: filepath.Join(t.TempDir(), "obs.json")}
	if _, err := clean.Run(spec, transport.Options{}); err != nil {
		t.Fatalf("clean -obsout run: %v", err)
	}
	for _, tc := range []struct {
		name    string
		obs     bool
		rewrite func([]byte) []byte
		want    string
	}{
		{"TELEMETRY carrying an unasked-for flight dump", false, withDump(shipped), "TELEMETRY carries a flight dump, and SPEC did not ask for one"},
		{"obsout TELEMETRY without its flight dump", true, withDump(nil), "TELEMETRY carries no flight dump, and SPEC asked for one"},
		{"obsout TELEMETRY with another shard's flight dump", true, withDump(bytes.Replace(shipped, []byte(`"shard":1`), []byte(`"shard":0`), 1)),
			"flight dump of shard 0, reason finish; want shard 1's at the finish"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			obsOut := ""
			if tc.obs {
				obsOut = filepath.Join(t.TempDir(), "obs.json")
			}
			s := onNth(transport.FrameTelemetry, 1, fate{rewrite: tc.rewrite})
			_, err := scriptedTCP(2, 1, 10*time.Second, obsOut, s).Run(spec, transport.Options{})
			if err == nil {
				t.Fatal("run reported success")
			}
			for _, want := range []string{"transport: shard 1: reply:", "phase harvest", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want it to contain %q", err, want)
				}
			}
			if tc.obs {
				if d := readObsFile(t, obsOut); d.GuiltyShard != 1 || d.ShardDumps[1] != nil {
					t.Errorf("obs document blames shard %d and keeps shard 1's dump %v", d.GuiltyShard, d.ShardDumps[1])
				}
			}
			settleGoroutines(t, base, tc.name)
		})
	}
	// Unprobed, only a lone shard reports, and only the round and the
	// rounds it skipped after it: shard 0's FINAL retyped as a REPORT
	// carrying an inbox profile is refused at two shards, and a lone
	// shard's second REPORT rewritten at one.
	for _, tc := range []struct {
		name   string
		shards int
		typ    byte
		body   []byte
		want   string
	}{
		{"unprobed REPORT carrying an inbox profile", 2, transport.FrameFinal, uv(1, 1, 1, 0), "REPORT, and no probe asked for it"},
		{"lone unprobed REPORT of another round", 1, transport.FrameReport, uv(5), "REPORT of round 5 in round 2"},
		{"lone unprobed REPORT carrying an inbox profile", 1, transport.FrameReport, uv(2, 1, 1, 0), "trailing bytes after report"},
		{"lone unprobed REPORT skipping past the round limit", 1, transport.FrameReport, uv(2, 1<<40), "REPORT skips 1099511627776 rounds after round 2, past the limit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			nth := map[byte]int{transport.FrameFinal: 1, transport.FrameReport: 2}[tc.typ]
			s := onNth(tc.typ, nth, fate{typ: transport.FrameReport, rewrite: func([]byte) []byte { return tc.body }})
			_, err := scriptedTCP(tc.shards, 0, 10*time.Second, "", s).Run(spec, transport.Options{})
			if err == nil {
				t.Fatal("run reported success")
			}
			for _, want := range []string{"transport: shard 0: reply:", "phase rounds", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want it to contain %q", err, want)
				}
			}
			settleGoroutines(t, base, tc.name)
		})
	}
}

// TestHostileRelayedPayload: what is wrong with a payload is found by the
// shard it is bound for — in its workload's Decode — and must be found
// there, as a protocol error naming the peer that sent it, never staged: a
// record of the reserved empty kind would sit in the outbox arena as "no
// message" and the send would silently vanish. Shard 1's ROUND of round 2
// is rewritten to carry one delivered message and a step whose one send
// crosses the first edge of the pair's crossing list with the row's
// payload, the last bytes of the frame — a payload carries no length, so
// one cut short runs into the frame's end; shard 0 must refuse it and
// report shard 1.
func TestHostileRelayedPayload(t *testing.T) {
	specs := suiteSpecs(1)
	ghs, walks := specs[3], specs[4]
	cases := []struct {
		name    string
		spec    transport.Spec
		payload []byte
		want    string
	}{
		{"walks/empty payload", walks, nil, "kind 16 payload word Win is malformed"},
		{"walks/field wider than the record", walks, uv(1, 1<<40, 0), "kind 16 payload word A is malformed"},
		{"walks/field in an overlong form", walks, []byte{0x81, 0x80, 0x00, 0x01, 0x01}, "kind 16 payload word Win is malformed"},
		{"walks/truncated payload", walks, uv(3, 1), "kind 16 payload word B is malformed"},
		// The GHS rows are named for the form before wireVersion 13, where
		// the window stamp came first. A GHS payload now opens with its tag
		// (0 a fragment ID, 2 a decision), so each is a record cut short.
		{"ghs/tag of the empty record", ghs, []byte{0, 0}, "kind 33 payload word A is malformed"},
		{"ghs/kind the codec does not own", ghs, []byte{0, 9}, "kind 33 payload word A is malformed"},
		{"ghs/stamp with nothing under it", ghs, []byte{2}, "kind 35 payload word Win is malformed"},
		{"ghs/unknown tag", ghs, []byte{9, 0}, "payload has no tag or an unknown one"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Round 2, one message delivered, none delayed, stepped; the step:
			// halted, wake, the one send, at the first crossing port.
			body := slices.Concat(uv(2, 1, 0), []byte{1}, uv(0, 0, 1, 0), tc.payload)

			base := runtime.NumGoroutine()
			scriptPeer(t, 1, onNth(transport.FrameRound, 3, fate{rewrite: func([]byte) []byte { return body }}))
			// Keep what each shard's ServeShard returned.
			var shardErrs [2]error
			spawn := goroutineSpawner(nil)
			tcp := transport.TCP{Shards: 2, Timeout: 10 * time.Second, Spawn: func(shard int, addr string) (transport.ShardHandle, error) {
				h, err := spawn(shard, addr)
				wait := h.Wait
				h.Wait = func() error {
					shardErrs[shard] = wait()
					return shardErrs[shard]
				}
				return h, err
			}}
			_, err := tcp.Run(tc.spec, transport.Options{})
			if err == nil || !strings.Contains(err.Error(), "transport: shard 1: reply:") {
				t.Fatalf("coordinator err = %v, want a bad frame attributed to shard 1", err)
			}
			settleGoroutines(t, base, tc.name)
			for _, want := range []string{"transport: shard 1: reply: decoding payload", tc.want} {
				if shardErrs[0] == nil || !strings.Contains(shardErrs[0].Error(), want) {
					t.Errorf("shard 0 ended with %v, want it to contain %q", shardErrs[0], want)
				}
			}
		})
	}
}
