package transport

// The TCP backend's coordinator: it listens on loopback (or any
// host:port), spawns one cmd/tcpnode process per shard, and drives the
// engine's round structure as an explicit machine (drive) whose every
// barrier is one call of one primitive (exchange):
//
//	accept    ←HELLO              version + shard index per connection
//	spec      SPEC→               the replayable spec
//	init      INIT→INITACK        round 0: Init on every shard, drain its events/sends
//	per round:
//	  deliver DELIVER→DELIVERED   relay cross-shard messages, build inboxes, and
//	                              step at once unless the round may be quiet
//	  (quiet check — same position as the in-process engines)
//	  step    STEP→STEPPED        only to the shards that held their step back
//	harvest   FINISH→FINAL        message counts and per-node workload records
//	          ←TELEMETRY          each shard's wire tallies + flight dump
//	reap                          close, then wait for / kill the runtimes
//
// A round is one wire exchange. A shard delivers, then steps in the same
// breath unless its own counts pass the quiet rule (quietRound: a quiet-
// terminating workload past round 0 whose shard delivered nothing and
// buffers no delayed message, with no crashed node due to recover); its
// one DELIVERED reply carries its counts, the inbox profile when a probe
// is attached and, when it stepped, the step. The run ends quietly only
// when the sums pass the same rule, so only when no shard stepped; a round
// that looked quiet from one shard but is not gets STEP for the shards
// that held back. Step sections are
// checked where their frame is read and applied in shard order — one that
// arrives ahead of a held-back shard's waits for it — so the sequential
// engine's phase ordering survives — the quiet check sits between deliver
// and step, before the round counter advances — and the probe stream the
// coordinator synthesizes (marks/halts in node order, then one RoundEnd
// rebuilt from the shards' inbox profiles) is byte-identical to a
// sequential in-process run of the same spec. A reply is trusted for
// nothing: its absorb* function checks every field against the graph and
// the shard's node range before any of it indexes coordinator state. The
// sends a step section relays are checked one by one and then copied into
// the DELIVER bodies as they arrived, in runs bound for one shard each:
// the encoding is canonical, so checked bytes are relayed bytes.
//
// Observability: the coordinator keeps an always-on flight recorder
// (internal/flightrec) plus per-shard last-completed-round/last-frame
// attribution, and — when a metrics registry or -obsout file is
// attached — a per-round, per-shard barrier-phase timeline
// (accept/deliver-write/deliver-wait/harvest, and step-write/step-wait
// in the rounds that need the STEP fallback) with a cross-shard skew
// series; without either, the barriers read the wall clock once each,
// for their deadline. Wall clocks NEVER enter the probe
// stream (trace files stay byte-identical to proc, the span_wall_ns
// discipline); they flow to the metrics registry and the merged ObsDoc
// written to ObsOut on every exit path including panic and SIGTERM.
//
// Failure policy: every read carries a deadline. A shard that dies
// mid-round (or wedges, or lies) surfaces as a clean shard-attributed
// error — naming the shard, its last completed round, the last frame it
// sent and the barrier phase — within one timeout, never a hang;
// remaining processes are killed on the way out.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
	"almostmix/internal/metrics"
)

// ShardHandle controls one spawned shard runtime.
type ShardHandle struct {
	// Wait blocks until the shard exits and reports its exit error.
	Wait func() error
	// Kill force-terminates the shard; safe after exit.
	Kill func()
}

// SpawnFunc starts the shard runtime for one shard index, told to dial
// the coordinator at addr. The default spawner execs the NodeBin
// binary; tests substitute in-process goroutines to put the whole
// protocol under the race detector.
type SpawnFunc func(shard int, addr string) (ShardHandle, error)

// TCP runs workloads across real processes over TCP. The zero value is
// not usable: Shards and (unless Spawn is set) NodeBin are required.
type TCP struct {
	// Shards is the number of node processes (1 ≤ Shards ≤ spec nodes).
	Shards int
	// ListenAddr is the coordinator's listen address, default
	// "127.0.0.1:0" (loopback, kernel-assigned port).
	ListenAddr string
	// NodeBin is the tcpnode binary the default spawner execs.
	NodeBin string
	// Timeout bounds every wire barrier (accept, per-frame read, flush)
	// and the post-run process wait; default 60s.
	Timeout time.Duration
	// Spawn overrides process spawning (tests); nil execs NodeBin.
	Spawn SpawnFunc
	// ObsOut, when set, is the path the merged observability document
	// (ObsDoc: both sides' flight recorders, wire tallies, barrier
	// timeline, round skew) is written to on every exit — clean finish,
	// shard death, barrier deadline, panic, SIGTERM.
	ObsOut string
}

// Name implements Transport.
func (TCP) Name() string { return "tcp" }

func (t TCP) timeout() time.Duration {
	if t.Timeout > 0 {
		return t.Timeout
	}
	return 60 * time.Second
}

// Run implements Transport.
func (t TCP) Run(spec Spec, opts Options) (Result, error) {
	_, inst, err := buildInstance(spec)
	if err != nil {
		return Result{}, err
	}
	n := inst.Graph.N()
	if t.Shards < 1 || t.Shards > n {
		return Result{}, fmt.Errorf("transport: %d shards for %d nodes (need 1 ≤ shards ≤ n)", t.Shards, n)
	}
	c := &coordinator{
		tcp:  t,
		spec: spec,
		inst: inst,
		opts: opts,
	}
	return c.run()
}

// shardError attributes a barrier failure to one shard: which shard,
// which barrier phase, the last round that shard completed and the
// last frame type it successfully sent. It wraps the underlying error
// (a net.Error deadline for stalls, a connection error for deaths) so
// errors.As classification keeps working through it.
type shardError struct {
	shard     int
	what      string // "read", "write", "flush"; "reply" when the frame arrived and its absorb rejected it
	phase     string
	lastRound int
	lastFrame string
	err       error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("transport: shard %d: %s: %v (phase %s, last completed round %d, last frame %s)",
		e.shard, e.what, e.err, e.phase, e.lastRound, e.lastFrame)
}

func (e *shardError) Unwrap() error { return e.err }

// classifyReason maps a run error to a flight-recorder dump reason: a
// deadline means a stalled shard hit the barrier timeout, a shard-
// attributed connection error means the shard died, anything else (a
// rejected reply included) is a generic error; nil is a clean finish.
func classifyReason(err error) string {
	if err == nil {
		return flightrec.ReasonFinish
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return flightrec.ReasonBarrierDeadline
	}
	var se *shardError
	if errors.As(err, &se) && se.what != "reply" {
		return flightrec.ReasonShardDeath
	}
	return flightrec.ReasonError
}

// coordinator is the per-run state of a TCP backend execution.
type coordinator struct {
	tcp  TCP
	spec Spec
	inst *Instance
	opts Options

	conns   []*frameConn
	handles []ShardHandle
	split   congest.Split // shard i owns split.Bounds(i), like every part

	rounds  int
	relayed int64
	// What the round in progress has reported so far: drive zeroes the
	// delivery sums before the DELIVER exchange, absorbDelivered adds each
	// reply's share, and the first step section applied starts the rest
	// over.
	halted, active            int
	delivered, pendingDelayed int
	roundFaults               faults.Counts
	messages                  int        // Σ FINAL message counts
	records                   [][]uint64 // FINAL records, one per node

	// relay[i] is the next DELIVER body of shard i, filled as step sections
	// apply; runs[i] is how shard i's checked section splits into them.
	relay []relayBatch
	runs  [][]relayRun
	reply stepReply // parse scratch
	// A barrier's step sections apply in shard (= node) order: applied
	// counts the shards whose section is in, and waiting[i] keeps a checked
	// section that arrived while a shard before it still owed its step —
	// the raw bytes, whose frame buffer stays put until they are applied (a
	// shard is read again in a round only when its DELIVERED carried no
	// step).
	applied int
	waiting [][]byte
	every   []int // every shard index, the shard set of a full barrier
	held    []int // the STEP fallback's shard set: those that did not step
	// sentAt[arc] is the barrier stamp (round+1) of the last send
	// absorbed onto that directed edge (graph.Halfedge.Arc): a reply naming one
	// receiver port twice is caught where it is absorbed, against the
	// shard that sent it.
	sentAt []int32

	// Always-on attribution state: the flight recorder ring plus, per
	// shard, the last round it completed (its step applied) and the
	// last frame type it successfully delivered to us.
	rec        *flightrec.Recorder
	shardRound []int
	lastType   []byte
	phase      string
	phaseRound int

	// Timeline/skew accumulation, active when a metrics registry or
	// ObsOut is attached — the one wall-time record of the barriers, which
	// metricsEnd also reads the wait and skew histograms from — and the
	// live instruments (all nil without a registry): the run's congest_*
	// block, shared with the in-process engines, and the per-round wire
	// histograms.
	obsOn      bool
	timeline   []TimelineRow
	skew       []RoundSkew
	shardTel   []*wireTelemetry
	prevFrames int64
	prevBytes  int64
	rm         *congest.RunMetrics
	obs        struct {
		roundFrames, roundBytes *metrics.Histogram // per round, both directions
		flushNS                 *metrics.Histogram // per-flush write-out latency
	}

	// agg builds the probe's per-round records from the shards' inbox
	// profiles; nil without a probe.
	agg *congest.RoundAggregator
}

func (c *coordinator) run() (res Result, err error) {
	addr := c.tcp.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return Result{}, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	c.prepare()

	defer func() {
		for _, fc := range c.conns {
			if fc != nil {
				fc.conn.Close()
			}
		}
		// A shard whose connection was never accepted (the handshake failed
		// on a sibling first) still sits in the listen backlog: closing the
		// listener resets it, so it ends with the run instead of holding
		// reap to its timeouts.
		ln.Close()
		c.reap(err != nil)
	}()

	if c.tcp.ObsOut != "" {
		// Crash-safe epilogue: a panic inside the protocol (or a SIGTERM
		// from outside) still leaves an attribution document behind.
		defer func() {
			if p := recover(); p != nil {
				c.rec.Record(flightrec.KindPanic, "", c.phaseRound, -1, 0, fmt.Sprint(p))
				if werr := WriteObs(c.tcp.ObsOut, c.obsDoc(flightrec.ReasonPanic, fmt.Errorf("panic: %v", p), c.wireRows())); werr != nil {
					fmt.Fprintln(os.Stderr, "transport:", werr)
				}
				panic(p)
			}
		}()
		stop := c.watchSigterm()
		defer stop()
	}

	if err = c.spawn(ln.Addr().String()); err == nil {
		res, err = c.drive(ln)
	}

	// Observability epilogue on every path, like the engines' finish().
	if p := c.opts.Probe; p != nil {
		p.RunEnd(c.rounds, err)
	}
	wire := c.wireRows()
	if reg := c.opts.Metrics; reg != nil {
		c.metricsEnd(reg, wire)
	}
	if c.tcp.ObsOut != "" {
		if werr := WriteObs(c.tcp.ObsOut, c.obsDoc(classifyReason(err), err, wire)); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintln(os.Stderr, "transport:", werr)
			}
		}
	}
	// res is the zero Result on every error path except a harvested
	// round-limit exit, which carries the partial result alongside the
	// wrapped congest.ErrRoundLimit.
	return res, err
}

// prepare builds the per-run state: the barrier scratch the absorb
// functions index, the always-on observability pieces (flight recorder,
// per-shard attribution) and — when a registry is attached — the run's
// congest_* block and the live tcpnet_* histograms.
func (c *coordinator) prepare() {
	k, g := c.tcp.Shards, c.inst.Graph
	c.split = congest.Split{N: g.N(), K: k}
	c.relay = make([]relayBatch, k)
	for i := range c.relay {
		c.relay[i].body = make([]byte, countRoom)
	}
	c.runs = make([][]relayRun, k)
	c.waiting = make([][]byte, k)
	c.every = make([]int, k)
	for i := range c.every {
		c.every[i] = i
	}
	c.sentAt = make([]int32, 2*g.M())
	c.rec = flightrec.New("coord", -1, flightrec.DefaultCapacity)
	c.shardRound = make([]int, k)
	c.lastType = make([]byte, k)
	c.shardTel = make([]*wireTelemetry, k)
	c.obsOn = c.tcp.ObsOut != "" || c.opts.Metrics != nil
	reg := c.opts.Metrics
	if reg == nil {
		return
	}
	c.rm = congest.StartRunMetrics(reg, c.inst.Faults != nil)
	c.obs.roundFrames = reg.Histogram("tcpnet_round_frames", metrics.PowersOf2(0, 20))
	c.obs.roundBytes = reg.Histogram("tcpnet_round_bytes", metrics.PowersOf2(4, 30))
	c.obs.flushNS = reg.Histogram("tcpnet_flush_ns", metrics.WallBuckets())
}

// phaseStart marks the coordinator's entry into one barrier phase for
// round attribution; the transition lands in the flight recorder
// (staying in a phase — harvest is one, written and waited — is none).
func (c *coordinator) phaseStart(phase string, round int) {
	if phase == c.phase && round == c.phaseRound {
		return
	}
	c.phase, c.phaseRound = phase, round
	c.rec.Record(flightrec.KindBarrier, "", round, -1, 0, phase)
}

// now reads the wall clock for the barrier timeline, and only when
// something listens (obsOn); otherwise it is the zero time, which
// notePhase and the skew never read.
func (c *coordinator) now() time.Time {
	if c.obsOn {
		return time.Now()
	}
	return time.Time{}
}

// notePhase attributes the coordinator wall time since t0 (from now) in
// the current phase to one shard as a timeline row.
func (c *coordinator) notePhase(shard int, t0 time.Time) {
	if c.obsOn {
		c.timeline = append(c.timeline, TimelineRow{
			Round: c.phaseRound, Shard: shard, Phase: c.phase, WallNS: time.Since(t0).Nanoseconds(),
		})
	}
}

// shardFail records a barrier failure against shard i and wraps it with
// the attribution the tests (and the obs document) key on.
func (c *coordinator) shardFail(i int, what string, err error) error {
	kind := flightrec.KindError
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		kind = flightrec.KindTimeout
	}
	c.rec.Record(kind, frameName(c.lastType[i]), c.phaseRound, i, 0, err.Error())
	return &shardError{
		shard:     i,
		what:      what,
		phase:     c.phase,
		lastRound: c.shardRound[i],
		lastFrame: frameName(c.lastType[i]),
		err:       err,
	}
}

// spawn starts the shard runtimes. The default SpawnFunc execs the tcpnode
// binary with the shard index and coordinator address, stderr passed
// through.
func (c *coordinator) spawn(addr string) error {
	spawn := c.tcp.Spawn
	if spawn == nil {
		spawn = func(shard int, addr string) (ShardHandle, error) {
			if c.tcp.NodeBin == "" {
				return ShardHandle{}, errors.New("transport: TCP.NodeBin not set (path to the tcpnode binary)")
			}
			cmd := exec.Command(c.tcp.NodeBin, "-connect", addr, "-shard", strconv.Itoa(shard))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return ShardHandle{}, err
			}
			return ShardHandle{Wait: cmd.Wait, Kill: func() { cmd.Process.Kill() }}, nil
		}
	}
	for i := 0; i < c.tcp.Shards; i++ {
		h, err := spawn(i, addr)
		if err != nil {
			return fmt.Errorf("transport: spawn shard %d: %w", i, err)
		}
		c.handles = append(c.handles, h)
	}
	return nil
}

// accept collects one HELLO-identified connection per shard, all under
// the barrier deadline.
func (c *coordinator) accept(ln net.Listener) error {
	c.phaseStart("accept", -1)
	deadline := time.Now().Add(c.tcp.timeout())
	c.conns = make([]*frameConn, c.tcp.Shards)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for got := 0; got < c.tcp.Shards; got++ {
		t0 := c.now()
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: accepting shard connections (%d/%d): %w", got, c.tcp.Shards, err)
		}
		fc := newFrameConn(conn)
		conn.SetReadDeadline(deadline)
		typ, body, err := fc.read()
		if err != nil || typ != frameHello {
			conn.Close()
			return fmt.Errorf("transport: shard handshake: type=%d err=%v", typ, err)
		}
		shard, err := parseHello(body)
		if err != nil {
			conn.Close()
			return err
		}
		if shard >= c.tcp.Shards || c.conns[shard] != nil {
			conn.Close()
			return fmt.Errorf("transport: bad or duplicate shard index %d in handshake", shard)
		}
		c.conns[shard] = fc
		c.lastType[shard] = frameHello
		c.rec.Record(flightrec.KindFrameRecv, "HELLO", -1, shard, len(body), "")
		c.notePhase(shard, t0)
	}
	return nil
}

func (c *coordinator) sendSpec() error {
	body, err := json.Marshal(wireSpec{
		Version: wireVersion,
		Shards:  c.tcp.Shards,
		Probe:   c.opts.Probe != nil,
		Spec:    c.spec,
	})
	if err != nil {
		return fmt.Errorf("transport: encode spec: %w", err)
	}
	_, err = c.exchange("spec", "", -1, c.every, frameSpec, func(int) []byte { return body }, 0, nil)
	return err
}

// broadcast writes one frame to each shard of the set (payload built per
// shard; nil sends empty bodies) and flushes. Per-shard write+flush wall
// time lands in the current phase's timeline; each flush is observed into
// the flush-latency histogram.
func (c *coordinator) broadcast(typ byte, payload func(shard int) []byte, shards []int) error {
	for _, i := range shards {
		fc := c.conns[i]
		t0 := c.now()
		var body []byte
		if payload != nil {
			body = payload(i)
		}
		if err := fc.write(typ, body); err != nil {
			return c.shardFail(i, "write", err)
		}
		preFlush := fc.tally.flushNS
		if err := fc.flush(); err != nil {
			return c.shardFail(i, "flush", err)
		}
		c.obs.flushNS.Observe(fc.tally.flushNS - preFlush)
		c.rec.Record(flightrec.KindFrameSent, frameName(typ), c.phaseRound, i, len(body), "")
		c.notePhase(i, t0)
	}
	return nil
}

// expect reads one frame of the given type from shard i, attributing the
// blocked wall time to the current phase.
func (c *coordinator) expect(i int, want byte) ([]byte, error) {
	fc := c.conns[i]
	t0 := c.now()
	typ, body, err := fc.read()
	c.notePhase(i, t0)
	if err != nil {
		return nil, c.shardFail(i, "read", err)
	}
	if typ != want {
		return nil, c.shardFail(i, "read", fmt.Errorf("frame type %d, want %s", typ, frameName(want)))
	}
	c.lastType[i] = typ
	c.rec.Record(flightrec.KindFrameRecv, frameName(typ), c.phaseRound, i, len(body), "")
	return body, nil
}

// exchange is the protocol's one barrier over a set of shards: send each
// one request frame (request 0 sends nothing: TELEMETRY follows FINAL
// unasked), then read one reply frame from each in shard (= node) order
// (reply 0 reads nothing: SPEC has no answer) and hand its body to absorb
// while the frame buffer holds it, all under one deadline. Every failure —
// write, flush, read, wrong frame type, absorb rejecting what the reply
// says — is a shardError naming shard, phase and cause. With a timeline
// attached it returns the spread between the first and the last reply
// read, else 0.
func (c *coordinator) exchange(writePhase, waitPhase string, round int, shards []int, request byte, body func(shard int) []byte,
	reply byte, absorb func(shard int, body []byte) error) (spreadNS int64, err error) {
	deadline := time.Now().Add(c.tcp.timeout())
	for _, i := range shards {
		c.conns[i].conn.SetDeadline(deadline)
	}
	if request != 0 {
		c.phaseStart(writePhase, round)
		if err := c.broadcast(request, body, shards); err != nil {
			return 0, err
		}
	}
	if reply == 0 {
		return 0, nil
	}
	c.phaseStart(waitPhase, round)
	t0 := c.now()
	var first, last int64
	for n, i := range shards {
		b, err := c.expect(i, reply)
		if err != nil {
			return 0, err
		}
		if c.obsOn {
			if last = time.Since(t0).Nanoseconds(); n == 0 {
				first = last
			}
		}
		if err := absorb(i, b); err != nil {
			return 0, c.shardFail(i, "reply", err)
		}
	}
	return last - first, nil
}

// drive is the protocol, one transition after another: accept → spec →
// init → (deliver → quiet? → step)* → harvest, where a round's step rides
// its DELIVER exchange and STEP goes out only to the shards that held it.
func (c *coordinator) drive(ln net.Listener) (Result, error) {
	if err := c.accept(ln); err != nil {
		return Result{}, err
	}
	if err := c.sendSpec(); err != nil {
		return Result{}, err
	}
	c.probeStart()
	// Round 0: Init everywhere, drain its events and outbound sends.
	if _, err := c.exchange("init", "init-wait", 0, c.every, frameInit, nil, frameInitAck, c.absorbStepped); err != nil {
		return Result{}, err
	}
	n, fellQuiet := c.inst.Graph.N(), false
	for c.rounds < c.inst.MaxRounds && c.halted < n {
		var t0 time.Time
		if c.rm != nil {
			t0 = time.Now()
		}
		// The round's exchange: relay the pending cross-shard messages, get
		// back each shard's delivery counts and, from every shard whose
		// own counts rule out a quiet round, its step. A step means the
		// round is not quiet, so it may apply before the quiet check.
		c.delivered, c.pendingDelayed, c.applied = 0, 0, 0
		skew, err := c.exchange("deliver-write", "deliver-wait", c.rounds+1, c.every, frameDeliver, c.takeDeliverBody, frameDelivered, c.absorbDelivered)
		if err != nil {
			return Result{}, err
		}
		if fellQuiet = c.inst.quietRound(c.rounds, c.delivered, c.pendingDelayed); fellQuiet {
			break
		}
		c.rounds++
		if err := c.stepHeld(); err != nil {
			return Result{}, err
		}
		c.roundEnd(t0, skew)
	}
	// Round-limit exits still harvest (mirroring Proc): fault-tolerant
	// retry drivers inspect the partial output of a budget-exhausted
	// attempt before deciding to retry.
	res, err := c.harvest()
	if err == nil && !fellQuiet && c.halted < n {
		err = fmt.Errorf("transport: after %d rounds: %w", c.rounds, congest.ErrRoundLimit)
	}
	return res, err
}

// probeStart announces the run and builds the round-record aggregator.
func (c *coordinator) probeStart() {
	p := c.opts.Probe
	if p == nil {
		return
	}
	g := c.inst.Graph
	c.agg = congest.NewRoundAggregator(g)
	p.RunStart(congest.RunInfo{Nodes: g.N(), Edges: g.M()})
}

// quietRound is congest.Network's quiet rule for the deliver phase that
// follows `rounds` executed rounds: a quiet-terminating workload, a round
// ≥ 1 that delivered nothing, no delayed message still buffered, no
// crashed node due to recover (faults.Plan.QuietAfter). A shard applies it
// to its own counts — it holds its step back only when they pass — and
// the coordinator to the sums, which pass only when every shard's did.
func (inst *Instance) quietRound(rounds, delivered, pending int) bool {
	return inst.Quiet && rounds > 0 && delivered == 0 && pending == 0 &&
		(inst.Faults == nil || inst.Faults.QuietAfter(rounds))
}

// stepHeld is the STEP fallback of a round that is not quiet: the shards
// whose own counts passed the quiet rule held their step back, and now
// take it.
func (c *coordinator) stepHeld() error {
	c.held = c.held[:0]
	for i := c.applied; i < len(c.waiting); i++ {
		if c.waiting[i] == nil {
			c.held = append(c.held, i)
		}
	}
	if len(c.held) == 0 {
		return nil
	}
	_, err := c.exchange("step-write", "step-wait", c.rounds, c.held, frameStep, nil, frameStepped, c.absorbStepped)
	return err
}

// absorbStepped reads one INITACK or STEPPED body: the step of round
// c.rounds (0 for Init).
func (c *coordinator) absorbStepped(shard int, body []byte) error {
	return c.takeStep(shard, c.rounds, body)
}

// takeStep parses shard's step section of the given round and checks
// every field before anything of it is applied: active and halted within
// the owned nodes, event nodes owned, and each send on a port of the graph
// that leaves the shard, named once; on the way it splits the sends into
// runs bound for one shard each. Then it applies the section, and any
// waiting behind it, if every shard before it is applied; else the section
// waits.
func (c *coordinator) takeStep(shard, round int, body []byte) error {
	r := &c.reply
	if err := parseStepReply(body, r); err != nil {
		return err
	}
	lo, hi := c.split.Bounds(shard)
	if r.active > hi-lo || r.halted > hi-lo {
		return fmt.Errorf("active %d, halted %d of %d owned nodes", r.active, r.halted, hi-lo)
	}
	for _, e := range r.events {
		if e.node < lo || e.node >= hi {
			return fmt.Errorf("event node %d outside owned nodes [%d, %d)", e.node, lo, hi)
		}
	}
	g, stamp := c.inst.Graph, int32(round+1)
	cur, runs := cursor{b: r.sendBytes}, c.runs[shard][:0]
	toLo, toHi := 0, 0 // the nodes of the shard the last run is bound for
	for j := 0; j < r.sends; j++ {
		dst, port, _ := cur.send()
		if cur.err != nil {
			return cur.err
		}
		if dst >= g.N() || port >= g.Degree(dst) {
			return fmt.Errorf("send dst %d port %d names no port of the graph's %d nodes", dst, port, g.N())
		}
		// Ports are numbered in graph.Graph's CSR order, so the port names
		// the sender: it must be this shard's node, dst another shard's,
		// and the port named once per barrier — else the receiving shard's
		// Inject would refuse it and take the blame.
		h := g.Neighbors(dst)[port]
		if from := int(h.To); from < lo || from >= hi || (dst >= lo && dst < hi) {
			return fmt.Errorf("send dst %d port %d is the edge from node %d, not one leaving owned nodes [%d, %d)", dst, port, from, lo, hi)
		}
		arc := h.Arc ^ 1 // the hop from the sender to dst
		if c.sentAt[arc] == stamp {
			return fmt.Errorf("send dst %d port %d named twice in one reply", dst, port)
		}
		c.sentAt[arc] = stamp
		if dst < toLo || dst >= toHi {
			to := c.split.Owner(dst)
			toLo, toHi = c.split.Bounds(to)
			runs = append(runs, relayRun{to: to})
		}
		run := &runs[len(runs)-1]
		run.sends++
		run.end = len(r.sendBytes) - len(cur.b)
	}
	if err := cur.done("step reply"); err != nil {
		return err
	}
	c.runs[shard] = runs
	c.shardRound[shard] = round
	if shard != c.applied {
		c.waiting[shard] = body
		return nil
	}
	c.applyStep()
	for c.applied < len(c.waiting) && c.waiting[c.applied] != nil {
		// Parsed and checked when it arrived: it parses again, and its
		// runs are kept.
		_ = parseStepReply(c.waiting[c.applied], r)
		c.waiting[c.applied] = nil
		c.applyStep()
	}
	return nil
}

// relayRun is a maximal run of consecutive sends of one step section bound
// for one shard: its sends end at offset end of the section's sendBytes.
type relayRun struct {
	to, sends, end int
}

// relayBatch is the DELIVER body of one shard in the making: the relayed
// sends, copied run by run behind countRoom bytes kept for their count,
// which takeDeliverBody writes in place.
type relayBatch struct {
	sends int
	body  []byte
}

const countRoom = binary.MaxVarintLen64

// applyStep folds the checked step section in c.reply, shard c.applied's,
// into coordinator state: replay its probe events, add its tallies to the
// round's, and append each run of its sends to the DELIVER body of the
// shard the run is bound for, as it arrived. Sections apply in shard (=
// node) order — the canonical replay order of probe events, whichever
// frame carried each, and the order of every DELIVER body's sends — and
// shard 0's, the barrier's first, starts the round's tallies over.
func (c *coordinator) applyStep() {
	if c.applied == 0 {
		c.halted, c.active, c.roundFaults = 0, 0, faults.Counts{}
	}
	r := &c.reply
	if p := c.opts.Probe; p != nil {
		for _, e := range r.events {
			if e.halt {
				p.NodeHalted(e.node, e.round)
			} else {
				p.PhaseMark(e.node, e.round, e.name)
			}
		}
	}
	c.halted += r.halted
	c.active += r.active
	c.roundFaults.Add(r.faults)
	start := 0
	for _, run := range c.runs[c.applied] {
		b := &c.relay[run.to]
		b.body = append(b.body, r.sendBytes[start:run.end]...)
		b.sends += run.sends
		start = run.end
	}
	c.relayed += int64(r.sends)
	c.applied++
}

// takeDeliverBody returns shard i's DELIVER body — the count written into
// the room before the sends — and empties its batch for the next round:
// broadcast frames each body before the next step section applies.
func (c *coordinator) takeDeliverBody(i int) []byte {
	b := &c.relay[i]
	var form [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(form[:], uint64(b.sends))
	body := b.body[countRoom-k:]
	copy(body, form[:k])
	b.sends, b.body = 0, b.body[:countRoom]
	return body
}

// absorbDelivered reads one shard's DELIVERED body — the round it
// answers, its delivered total and the count of delayed messages still
// buffered for its receivers (the quiet check extends to those), then,
// when a probe is attached, per owned node in ID order the inbox size and
// the ports the messages arrived on: what the round aggregator needs to
// rebuild InboxSizes, EdgeLoad and the max-inbox fields of the RoundRecord
// (shards arrive in node order, which its tie-breaking needs). Then the
// stepped flag and, when it is set, the step section of round c.rounds+1,
// which takeStep checks here and applies as soon as every shard before
// this one has stepped. Checked on the way: the round is this one (a round
// trip answers with one frame type, so only the number tells a replayed
// reply from a fresh one), with a probe every port inside its node's
// degree and the sizes summing to the total, and the flag set exactly when
// the shard's own counts rule out a quiet round — a shard that steps when it should have
// held back, or holds back a step it owed, is lying, not out of step.
func (c *coordinator) absorbDelivered(shard int, body []byte) error {
	cur := cursor{b: body}
	if round := cur.int("delivered round"); cur.err == nil && round != c.rounds+1 {
		return fmt.Errorf("DELIVERED of round %d in round %d", round, c.rounds+1)
	}
	delivered, pending := cur.int("delivered total"), cur.int("delivered pending")
	// agg exists exactly when a probe does, which the shards were told
	// (wireSpec.Probe): the profile is there only for it.
	sum := delivered
	if c.agg != nil {
		sum = 0
		g := c.inst.Graph
		lo, hi := c.split.Bounds(shard)
		for u := lo; u < hi && cur.err == nil; u++ {
			size, degree := cur.length("inbox size"), g.Degree(u)
			for j := 0; j < size && cur.err == nil; j++ {
				port := cur.int("inbox port")
				if port >= degree {
					return fmt.Errorf("inbox port %d at node %d of degree %d", port, u, degree)
				}
				c.agg.Deliver(u, port)
			}
			sum += size
		}
	}
	stepped := cur.byte("delivered stepped flag")
	if cur.err == nil && stepped > 1 {
		cur.fail("delivered stepped flag")
	}
	if cur.err != nil {
		return cur.err
	}
	if sum != delivered {
		return fmt.Errorf("delivered %d but the inbox sizes sum to %d", delivered, sum)
	}
	switch may := c.inst.quietRound(c.rounds, delivered, pending); {
	case may && stepped == 1:
		return fmt.Errorf("stepped in round %d, which delivered %d with %d delayed pending and may be quiet", c.rounds+1, delivered, pending)
	case !may && stepped == 0:
		return fmt.Errorf("held its step in round %d, which delivered %d with %d delayed pending and cannot be quiet", c.rounds+1, delivered, pending)
	case stepped == 1:
		if err := c.takeStep(shard, c.rounds+1, cur.b); err != nil {
			return err
		}
	default:
		if err := cur.done("delivered reply"); err != nil {
			return err
		}
	}
	c.delivered += delivered
	c.pendingDelayed += pending
	return nil
}

// roundEnd closes one stepped round, begun at t0, on everything that
// listens: the plan's totals, the probe's RoundEnd (the record aggregated
// from the collected profiles), the run's congest_* block, the skew
// series and the round's wire telemetry. DELIVERED replies drain in shard
// order, so the skew is the spread between the first and last of them
// read — a lower bound on true skew, tight when the slow shard is last.
// t0 is read only with a registry attached (c.rm).
func (c *coordinator) roundEnd(t0 time.Time, spreadNS int64) {
	// The coordinator never delivers, so its copy of the plan rolls no
	// fates: it accumulates the counts the step sections return (and
	// answers the quiet check's recovery rule).
	counts := c.roundFaults
	if plan := c.inst.Faults; plan != nil {
		plan.AddCounts(counts)
	}
	if c.agg != nil {
		c.agg.RoundEnd(c.opts.Probe, c.rounds, c.delivered, c.active, c.halted, counts)
	}
	if c.rm != nil {
		c.rm.Round(time.Since(t0).Nanoseconds(), c.delivered, counts)
	}
	if c.obsOn {
		c.skew = append(c.skew, RoundSkew{Round: c.rounds, SkewNS: spreadNS})
	}
	var frames, bytes int64
	for _, fc := range c.conns {
		frames += fc.tally.frames()
		bytes += fc.tally.bytes()
	}
	c.obs.roundFrames.Observe(frames - c.prevFrames)
	c.obs.roundBytes.Observe(bytes - c.prevBytes)
	c.prevFrames, c.prevBytes = frames, bytes
}

// harvest ends the run: FINISH to every shard, collect the FINAL replies
// (records concatenate in shard order into one per node) and each shard's
// TELEMETRY ship-back, then reduce the records to the workload's output.
func (c *coordinator) harvest() (Result, error) {
	if _, err := c.exchange("harvest", "harvest", c.rounds, c.every, frameFinish, nil, frameFinal, c.absorbFinal); err != nil {
		return Result{}, err
	}
	if _, err := c.exchange("harvest", "harvest", c.rounds, c.every, 0, nil, frameTelemetry, c.absorbTelemetry); err != nil {
		return Result{}, err
	}
	res := Result{Rounds: c.rounds, Messages: c.messages}
	if plan := c.inst.Faults; plan != nil {
		res.Faults = plan.Totals()
	}
	var err error
	if res.Output, err = c.inst.reduce(c.records); err != nil {
		return Result{}, err
	}
	return res, nil
}

func (c *coordinator) absorbFinal(shard int, body []byte) error {
	lo, hi := c.split.Bounds(shard)
	cur := cursor{b: body}
	c.messages += cur.int("final messages")
	c.records = cur.records(c.records, hi-lo)
	return cur.done("final reply")
}

func (c *coordinator) absorbTelemetry(shard int, body []byte) error {
	wt := &wireTelemetry{}
	if err := json.Unmarshal(body, wt); err != nil {
		return fmt.Errorf("decoding telemetry: %w", err)
	}
	if wt.Endpoint != "shard" || wt.Shard != shard {
		return fmt.Errorf("telemetry row of %s %d", wt.Endpoint, wt.Shard) // it is rendered under those names
	}
	c.shardTel[shard] = wt
	return nil
}

// reap closes out the shard runtimes: on the error path everything is
// killed immediately; on success each runtime gets one timeout to exit
// on its own (the closed connections tell it the run is over) before
// being killed.
func (c *coordinator) reap(killAll bool) {
	for _, h := range c.handles {
		if killAll {
			h.Kill()
		}
	}
	for _, h := range c.handles {
		done := make(chan struct{})
		go func(wait func() error) {
			if wait != nil {
				wait()
			}
			close(done)
		}(h.Wait)
		select {
		case <-done:
		case <-time.After(c.tcp.timeout()):
			h.Kill()
			// Bounded second wait: a handle whose Kill cannot unstick its
			// Wait (a wedged test goroutine) must not hang the run.
			select {
			case <-done:
			case <-time.After(c.tcp.timeout()):
			}
		}
	}
}

// wireRows is the run's wire tallies, rendered by metricsEnd and obsDoc
// alike: the coordinator's side of every accepted connection, then the
// shard-side row of every shard that shipped its TELEMETRY.
func (c *coordinator) wireRows() []WireStats {
	var rows []WireStats
	for i, fc := range c.conns {
		if fc != nil {
			rows = append(rows, wireStats("coord", i, &fc.tally))
		}
	}
	for _, wt := range c.shardTel {
		if wt != nil {
			rows = append(rows, wt.WireStats)
		}
	}
	return rows
}

// metricsEnd closes the run's congest_* block and exports its wire
// telemetry: the barrier wait and round skew histograms, read off the
// timeline and the skew series (deliver-wait is every round's one
// exchange, step itself included; step-wait only the STEP fallback's
// rounds); aggregate and per-shard frame/byte/flush
// counters for the coordinator's side of every connection, per-frame-type
// directional counters, and — for shards that shipped their TELEMETRY
// frame — the shard-side tallies under tcpnet_shard_*.
func (c *coordinator) metricsEnd(reg *metrics.Registry, wire []WireStats) {
	c.rm.End()
	waits := map[string]*metrics.Histogram{ // other phases find nil, a no-op
		"deliver-wait": reg.Histogram("tcpnet_deliver_wait_ns", metrics.WallBuckets()),
		"step-wait":    reg.Histogram("tcpnet_step_wait_ns", metrics.WallBuckets()),
	}
	for _, row := range c.timeline {
		waits[row.Phase].Observe(row.WallNS)
	}
	skew := reg.Histogram("tcpnet_round_skew_ns", metrics.WallBuckets())
	for _, s := range c.skew {
		skew.Observe(s.SkewNS)
	}
	reg.Counter("tcpnet_relayed_messages_total").Add(c.relayed)
	frames, bytes := reg.Counter("tcpnet_frames_total"), reg.Counter("tcpnet_bytes_total")
	flushes, flushNS := reg.Counter("tcpnet_flushes_total"), reg.Counter("tcpnet_flush_ns_total")
	for _, ws := range wire {
		f, b := ws.SentFrames+ws.RecvFrames, ws.SentBytes+ws.RecvBytes
		if ws.Endpoint == "shard" {
			reg.Counter(fmt.Sprintf("tcpnet_shard_frames_total{shard=%d}", ws.Shard)).Add(f)
			reg.Counter(fmt.Sprintf("tcpnet_shard_bytes_total{shard=%d}", ws.Shard)).Add(b)
			reg.Counter(fmt.Sprintf("tcpnet_shard_flush_ns_total{shard=%d}", ws.Shard)).Add(ws.FlushNS)
			if ws.Faults.Any() {
				reg.Counter(fmt.Sprintf("tcpnet_shard_msgs_dropped_total{shard=%d}", ws.Shard)).Add(ws.Faults.Dropped)
				reg.Counter(fmt.Sprintf("tcpnet_shard_msgs_duplicated_total{shard=%d}", ws.Shard)).Add(ws.Faults.Duplicated)
				reg.Counter(fmt.Sprintf("tcpnet_shard_msgs_delayed_total{shard=%d}", ws.Shard)).Add(ws.Faults.Delayed)
				reg.Counter(fmt.Sprintf("tcpnet_shard_node_crash_rounds_total{shard=%d}", ws.Shard)).Add(ws.Faults.Crashed)
			}
			continue
		}
		frames.Add(f)
		bytes.Add(b)
		flushes.Add(ws.Flushes)
		flushNS.Add(ws.FlushNS)
		reg.Counter(fmt.Sprintf("tcpnet_frames_total{shard=%d}", ws.Shard)).Add(f)
		reg.Counter(fmt.Sprintf("tcpnet_bytes_total{shard=%d}", ws.Shard)).Add(b)
		for name, n := range ws.SentByType {
			reg.Counter(fmt.Sprintf("tcpnet_frames_sent_total{type=%s}", name)).Add(n)
		}
		for name, n := range ws.RecvByType {
			reg.Counter(fmt.Sprintf("tcpnet_frames_recv_total{type=%s}", name)).Add(n)
		}
	}
	reg.Gauge("tcpnet_shards").Set(float64(c.tcp.Shards))
}

// obsHeader is the part of the document made of the run's fixed facts
// and a dump of the mutex-protected recorder alone — all a signal handler
// racing the round loop may touch.
func (c *coordinator) obsHeader(dump flightrec.Dump, guilty, lastRound int, phase, errMsg string) *ObsDoc {
	return &ObsDoc{
		Schema:      ObsSchema,
		Backend:     "tcp",
		Spec:        c.spec,
		Shards:      c.tcp.Shards,
		Reason:      dump.Reason,
		GuiltyShard: guilty,
		LastRound:   lastRound,
		Phase:       phase,
		Error:       errMsg,
		Coordinator: dump.Attribute(guilty, lastRound, phase, errMsg),
		ShardDumps:  make([]*flightrec.Dump, c.tcp.Shards),
	}
}

// obsDoc assembles the merged document from the coordinator's state:
// its own flight dump (attributed when the run failed), every shipped
// shard dump, both sides' wire tallies, the barrier timeline and the
// skew series.
func (c *coordinator) obsDoc(reason string, runErr error, wire []WireStats) *ObsDoc {
	guilty, lastRound, phase, errMsg := -1, c.rounds, "", ""
	if runErr != nil {
		errMsg = runErr.Error()
		var se *shardError
		if errors.As(runErr, &se) {
			guilty, lastRound, phase = se.shard, se.lastRound, se.phase
		}
	}
	doc := c.obsHeader(c.rec.Dump(reason), guilty, lastRound, phase, errMsg)
	doc.Rounds = c.rounds
	doc.Wire, doc.Timeline, doc.Skew = wire, c.timeline, c.skew
	for i, wt := range c.shardTel {
		if wt != nil {
			d := wt.Dump
			doc.ShardDumps[i] = &d
		}
	}
	return doc
}

// watchSigterm dumps the flight recorder on SIGTERM. The handler runs
// concurrently with a possibly-blocked round loop, so it writes the
// document's header only — never the timeline/wire state — then
// restores the default disposition and re-delivers the signal so the
// process still dies.
func (c *coordinator) watchSigterm() (stop func()) {
	sigc := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sigc, syscall.SIGTERM)
	go func() {
		select {
		case <-done:
		case <-sigc:
			c.rec.Record(flightrec.KindSignal, "", -1, -1, 0, "SIGTERM")
			dump := c.rec.Dump(flightrec.ReasonSigterm)
			doc := c.obsHeader(dump, -1, dump.LastRound, "", "terminated by SIGTERM")
			if err := WriteObs(c.tcp.ObsOut, doc); err != nil {
				fmt.Fprintln(os.Stderr, "transport:", err)
			}
			signal.Stop(sigc)
			syscall.Kill(os.Getpid(), syscall.SIGTERM)
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(done)
	}
}
