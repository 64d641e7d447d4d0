package transport

// The TCP backend's coordinator: it listens on loopback (or any
// host:port), spawns one cmd/tcpnode process per shard, and drives the
// engine's round structure as wire barriers:
//
//	HELLO/SPEC    handshake: version + shard index, replayable spec
//	INIT→INITACK  round 0: Init on every shard, drain its events/sends
//	per round:
//	  DELIVER→DELIVERED   relay cross-shard messages, build inboxes
//	  (quiet check — same position as the in-process engines)
//	  STEP→STEPPED        run programs, drain events and new sends
//	FINISH→FINAL  harvest message counts and workload outputs
//	←TELEMETRY    each shard ships its wire tallies + flight dump back
//
// The two barriers per round replicate the sequential engine's phase
// ordering exactly — in particular the quiet check sits between deliver
// and step, before the round counter advances — so the probe stream the
// coordinator synthesizes (marks/halts in node order, then one
// RoundEnd rebuilt from the shards' inbox profiles) is byte-identical
// to a sequential in-process run of the same spec.
//
// Observability: the coordinator keeps an always-on flight recorder
// (internal/flightrec) plus per-shard last-completed-round/last-frame
// attribution, and — when a metrics registry or -obsout file is
// attached — a per-round, per-shard barrier-phase timeline
// (accept/deliver-write/deliver-wait/step-write/step-wait/harvest)
// with a cross-shard skew series. Wall clocks NEVER enter the probe
// stream (trace files stay byte-identical to proc, the span_wall_ns
// discipline); they flow to the metrics registry and the merged ObsDoc
// written to ObsOut on every exit path including panic and SIGTERM.
//
// Failure policy: every read carries a deadline. A shard that dies
// mid-round (or wedges) surfaces as a clean shard-attributed error —
// naming the shard, its last completed round, the last frame it sent
// and the barrier phase — within one timeout, never a hang; remaining
// processes are killed on the way out.

import (
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
	wl, inst, err := buildInstance(spec)
	if err != nil {
		return Result{}, err
	}
	if wl.Encode == nil || wl.Decode == nil {
		return Result{}, fmt.Errorf("transport: workload %q has no payload codec, cannot run over tcp", spec.Workload)
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
		plan: inst.Faults,
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
	what      string // "read", "write", "flush"
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
// attributed connection error means the shard died, anything else is a
// generic error; nil is a clean finish.
func classifyReason(err error) string {
	if err == nil {
		return flightrec.ReasonFinish
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return flightrec.ReasonBarrierDeadline
	}
	var se *shardError
	if errors.As(err, &se) {
		return flightrec.ReasonShardDeath
	}
	return flightrec.ReasonError
}

// obsInstruments are the coordinator's telemetry histograms; all nil
// (no-op) without a metrics registry.
type obsInstruments struct {
	roundFrames *metrics.Histogram // frames per round, both directions
	roundBytes  *metrics.Histogram // bytes per round, both directions
	flushNS     *metrics.Histogram // per-flush write-out latency
	skewNS      *metrics.Histogram // per-round cross-shard step skew
	deliverWait *metrics.Histogram // per-shard deliver-barrier read wait
	stepWait    *metrics.Histogram // per-shard step-barrier read wait
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
	halted  int
	relayed int64

	// plan is the instance's fault plan, identical to every replica's.
	// The coordinator never delivers, so it rolls no fates: its plan
	// answers the quiet check's recovery rule and accumulates the
	// per-round counts the STEPPED replies return.
	plan *faults.Plan
	// Fault counters, registered by metricsStart when a plan and a
	// registry are both attached; nil otherwise.
	fcDropped, fcDuplicated, fcDelayed, fcCrashed *metrics.Counter
	// pending[i] holds the cross-shard messages to relay to shard i in
	// the next DELIVER, payload bytes owned by pendingBuf.
	pending    [][]wireSend
	pendingBuf [][]byte

	// Always-on attribution state: the flight recorder ring plus, per
	// shard, the last round it completed (STEPPED received) and the
	// last frame type it successfully delivered to us.
	rec        *flightrec.Recorder
	shardRound []int
	lastType   []byte
	phase      string
	phaseRound int

	// Timeline/skew accumulation and instruments, active when a metrics
	// registry or ObsOut is attached.
	obsOn      bool
	timeline   []TimelineRow
	skew       []RoundSkew
	shardTel   []*wireTelemetry
	prevFrames int64
	prevBytes  int64
	obs        obsInstruments

	// agg builds the probe's per-round records from the shards' inbox
	// profiles; nil without a probe.
	agg *congest.RoundAggregator
}

func (c *coordinator) run() (res Result, err error) {
	t0 := time.Now()
	addr := c.tcp.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return Result{}, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	defer ln.Close()

	k := c.tcp.Shards
	c.split = congest.Split{N: c.inst.Graph.N(), K: k}
	c.pending = make([][]wireSend, k)
	c.pendingBuf = make([][]byte, k)
	c.obsInit(k)

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
				if werr := c.writeObs(flightrec.ReasonPanic, fmt.Errorf("panic: %v", p)); werr != nil {
					fmt.Fprintln(os.Stderr, "transport:", werr)
				}
				panic(p)
			}
		}()
		stop := c.watchSigterm()
		defer stop()
	}

	res, err = func() (Result, error) {
		spawn := c.tcp.Spawn
		if spawn == nil {
			spawn = c.execSpawner()
		}
		for i := 0; i < k; i++ {
			h, err := spawn(i, ln.Addr().String())
			if err != nil {
				return Result{}, fmt.Errorf("transport: spawn shard %d: %w", i, err)
			}
			c.handles = append(c.handles, h)
		}
		if err := c.accept(ln); err != nil {
			return Result{}, err
		}
		if err := c.sendSpec(); err != nil {
			return Result{}, err
		}
		return c.drive()
	}()

	// Observability epilogue on every path, like the engines' finish().
	if p := c.opts.Probe; p != nil {
		p.RunEnd(c.rounds, err)
	}
	if reg := c.opts.Metrics; reg != nil {
		c.metricsEnd(reg, time.Since(t0))
	}
	if c.tcp.ObsOut != "" {
		if werr := c.writeObs(classifyReason(err), err); werr != nil {
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

// obsInit builds the per-run observability state: the always-on pieces
// (flight recorder, per-shard attribution) plus — when any consumer is
// attached — the tcpnet_* instruments.
func (c *coordinator) obsInit(k int) {
	c.rec = flightrec.New("coord", -1, flightrec.DefaultCapacity)
	c.shardRound = make([]int, k)
	c.lastType = make([]byte, k)
	c.shardTel = make([]*wireTelemetry, k)
	c.obsOn = c.tcp.ObsOut != "" || c.opts.Metrics != nil
	if reg := c.opts.Metrics; reg != nil {
		c.obs = obsInstruments{
			roundFrames: reg.Histogram("tcpnet_round_frames", metrics.PowersOf2(0, 20)),
			roundBytes:  reg.Histogram("tcpnet_round_bytes", metrics.PowersOf2(4, 30)),
			flushNS:     reg.Histogram("tcpnet_flush_ns", metrics.WallBuckets()),
			skewNS:      reg.Histogram("tcpnet_round_skew_ns", metrics.WallBuckets()),
			deliverWait: reg.Histogram("tcpnet_deliver_wait_ns", metrics.WallBuckets()),
			stepWait:    reg.Histogram("tcpnet_step_wait_ns", metrics.WallBuckets()),
		}
	}
}

// phaseStart marks the coordinator's entry into one barrier phase for
// round attribution; the transition lands in the flight recorder.
func (c *coordinator) phaseStart(phase string, round int) {
	c.phase, c.phaseRound = phase, round
	c.rec.Record(flightrec.KindBarrier, "", round, -1, 0, phase)
}

// notePhase attributes ns of coordinator wall time in the current phase
// to one shard: a timeline row, plus the matching wait histogram.
func (c *coordinator) notePhase(shard int, ns int64) {
	switch c.phase {
	case "deliver-wait":
		c.obs.deliverWait.Observe(ns)
	case "step-wait":
		c.obs.stepWait.Observe(ns)
	}
	if c.obsOn {
		c.timeline = append(c.timeline, TimelineRow{
			Round: c.phaseRound, Shard: shard, Phase: c.phase, WallNS: ns,
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

// execSpawner is the default SpawnFunc: exec the tcpnode binary with
// the shard index and coordinator address, stderr passed through.
func (c *coordinator) execSpawner() SpawnFunc {
	bin := c.tcp.NodeBin
	return func(shard int, addr string) (ShardHandle, error) {
		if bin == "" {
			return ShardHandle{}, errors.New("transport: TCP.NodeBin not set (path to the tcpnode binary)")
		}
		cmd := exec.Command(bin, "-connect", addr, "-shard", strconv.Itoa(shard))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return ShardHandle{}, err
		}
		return ShardHandle{
			Wait: cmd.Wait,
			Kill: func() { cmd.Process.Kill() },
		}, nil
	}
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
		t0 := time.Now()
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
		if shard < 0 || shard >= c.tcp.Shards || c.conns[shard] != nil {
			conn.Close()
			return fmt.Errorf("transport: bad or duplicate shard index %d in handshake", shard)
		}
		c.conns[shard] = fc
		c.lastType[shard] = frameHello
		c.rec.Record(flightrec.KindFrameRecv, "HELLO", -1, shard, len(body), "")
		c.notePhase(shard, time.Since(t0).Nanoseconds())
	}
	return nil
}

func (c *coordinator) sendSpec() error {
	body, err := json.Marshal(wireSpec{
		Version: wireVersion,
		Shards:  c.tcp.Shards,
		Spec:    c.spec,
	})
	if err != nil {
		return fmt.Errorf("transport: encode spec: %w", err)
	}
	c.phaseStart("spec", -1)
	return c.broadcast(frameSpec, func(int) []byte { return body })
}

// broadcast writes one frame to every shard (payload built per shard)
// and flushes, under a write deadline. Per-shard write+flush wall time
// lands in the current phase's timeline; each flush is observed into
// the flush-latency histogram.
func (c *coordinator) broadcast(typ byte, payload func(shard int) []byte) error {
	deadline := time.Now().Add(c.tcp.timeout())
	for i, fc := range c.conns {
		t0 := time.Now()
		fc.conn.SetWriteDeadline(deadline)
		body := payload(i)
		if err := fc.write(typ, body); err != nil {
			return c.shardFail(i, "write", err)
		}
		preFlush := fc.tally.flushNS
		if err := fc.flush(); err != nil {
			return c.shardFail(i, "flush", err)
		}
		c.obs.flushNS.Observe(fc.tally.flushNS - preFlush)
		c.rec.Record(flightrec.KindFrameSent, frameName(typ), c.phaseRound, i, len(body), "")
		c.notePhase(i, time.Since(t0).Nanoseconds())
	}
	return nil
}

// expect reads one frame of the given type from shard i under the
// barrier deadline, attributing the blocked wall time to the current
// phase.
func (c *coordinator) expect(i int, want byte, deadline time.Time) ([]byte, error) {
	fc := c.conns[i]
	fc.conn.SetReadDeadline(deadline)
	t0 := time.Now()
	typ, body, err := fc.read()
	c.notePhase(i, time.Since(t0).Nanoseconds())
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

// drive runs the round loop after the handshake.
func (c *coordinator) drive() (Result, error) {
	g := c.inst.Graph
	n := g.N()
	if p := c.opts.Probe; p != nil {
		c.agg = congest.NewRoundAggregator(g)
		p.RunStart(congest.RunInfo{
			Engine:  "tcpnet",
			Workers: c.tcp.Shards,
			Nodes:   n,
			Edges:   g.M(),
		})
	}

	// Round 0: Init everywhere, drain its events and outbound sends.
	c.phaseStart("init", 0)
	if err := c.broadcast(frameInit, func(int) []byte { return nil }); err != nil {
		return Result{}, err
	}
	var reply stepReply
	var delivered deliveredReply
	c.phaseStart("init-wait", 0)
	deadline := time.Now().Add(c.tcp.timeout())
	for i := range c.conns {
		body, err := c.expect(i, frameInitAck, deadline)
		if err != nil {
			return Result{}, err
		}
		if err := parseStepReply(body, &reply); err != nil {
			return Result{}, fmt.Errorf("transport: shard %d: %w", i, err)
		}
		c.absorbReply(i, &reply)
	}

	deliveredCounter, roundsCounter := c.metricsStart()

	for r := 0; r < c.inst.MaxRounds; r++ {
		if c.halted == n {
			return c.harvest(nil)
		}
		// Deliver barrier: relay the pending cross-shard messages, get
		// back each shard's delivery profile.
		c.phaseStart("deliver-write", c.rounds+1)
		if err := c.broadcast(frameDeliver, c.takeDeliverBody); err != nil {
			return Result{}, err
		}
		c.phaseStart("deliver-wait", c.rounds+1)
		deadline = time.Now().Add(c.tcp.timeout())
		deliveredTotal, pendingTotal := 0, 0
		for i := range c.conns {
			body, err := c.expect(i, frameDelivered, deadline)
			if err != nil {
				return Result{}, err
			}
			lo, hi := c.split.Bounds(i)
			if err := parseDeliveredReply(body, hi-lo, &delivered); err != nil {
				return Result{}, fmt.Errorf("transport: shard %d: %w", i, err)
			}
			deliveredTotal += delivered.delivered
			pendingTotal += delivered.pending
			c.absorbProfile(i, &delivered)
		}
		if c.inst.Quiet && r > 0 && deliveredTotal == 0 && pendingTotal == 0 && c.faultsQuiet() {
			return c.harvest(nil)
		}
		c.rounds++
		// Step barrier: everyone advances one round; events, halt
		// counts, the round's fault counts and the next round's
		// cross-shard sends come back.
		c.phaseStart("step-write", c.rounds)
		if err := c.broadcast(frameStep, func(int) []byte { return nil }); err != nil {
			return Result{}, err
		}
		c.phaseStart("step-wait", c.rounds)
		deadline = time.Now().Add(c.tcp.timeout())
		barrier0 := time.Now()
		var firstDone, lastDone int64
		active := 0
		c.halted = 0
		var roundFaults faults.Counts
		for i := range c.conns {
			body, err := c.expect(i, frameStepped, deadline)
			if err != nil {
				return Result{}, err
			}
			done := time.Since(barrier0).Nanoseconds()
			if i == 0 {
				firstDone = done
			}
			lastDone = done
			if err := parseStepReply(body, &reply); err != nil {
				return Result{}, fmt.Errorf("transport: shard %d: %w", i, err)
			}
			c.shardRound[i] = c.rounds
			active += reply.active
			roundFaults.Add(reply.faults)
			c.absorbReply(i, &reply)
		}
		if c.plan != nil {
			c.plan.AddCounts(roundFaults)
			c.obsFaultRound(roundFaults)
		}
		c.roundEnd(deliveredTotal, active, roundFaults)
		c.roundObs(lastDone - firstDone)
		if deliveredCounter != nil {
			deliveredCounter.Add(int64(deliveredTotal))
			roundsCounter.Add(1)
		}
	}
	if c.halted == n {
		return c.harvest(nil)
	}
	// Round-limit exits still harvest (mirroring Proc): fault-tolerant
	// retry drivers inspect the partial output of a budget-exhausted
	// attempt before deciding to retry.
	res, herr := c.harvest(nil)
	if herr != nil {
		return Result{}, herr
	}
	return res, fmt.Errorf("transport: after %d rounds: %w", c.rounds, congest.ErrRoundLimit)
}

// faultsQuiet is the recovery half of congest.Network.faultsQuiet (the
// shared rule is faults.Plan.QuietAfter); the delayed-message half is the
// summed pending counts the DELIVERED replies report.
func (c *coordinator) faultsQuiet() bool {
	return c.plan == nil || c.plan.QuietAfter(c.rounds)
}

// roundObs closes one round's telemetry: the cross-shard step skew and
// the round's frame/byte volume deltas. Replies drain in shard order,
// so the skew is the spread between the first and last reply read —
// a lower bound on true skew, tight when the slow shard is last.
func (c *coordinator) roundObs(skewNS int64) {
	if c.obsOn {
		c.skew = append(c.skew, RoundSkew{Round: c.rounds, SkewNS: skewNS})
	}
	c.obs.skewNS.Observe(skewNS)
	var frames, bytes int64
	for _, fc := range c.conns {
		frames += fc.tally.frames()
		bytes += fc.tally.bytes()
	}
	c.obs.roundFrames.Observe(frames - c.prevFrames)
	c.obs.roundBytes.Observe(bytes - c.prevBytes)
	c.prevFrames, c.prevBytes = frames, bytes
}

// absorbReply folds one INITACK/STEPPED into coordinator state: replay
// its probe events (shards arrive in node order, so replay order is the
// canonical one), update the halt tally, and buffer its outbound sends
// for the next DELIVER.
func (c *coordinator) absorbReply(shard int, r *stepReply) {
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
	for _, s := range r.sends {
		dst := c.split.Owner(s.dst)
		off := len(c.pendingBuf[dst])
		c.pendingBuf[dst] = append(c.pendingBuf[dst], s.payload...)
		c.pending[dst] = append(c.pending[dst], wireSend{
			dst:     s.dst,
			port:    s.port,
			payload: c.pendingBuf[dst][off:],
		})
		c.relayed++
	}
}

// takeDeliverBody serializes and clears shard i's pending batch.
func (c *coordinator) takeDeliverBody(i int) []byte {
	body := appendSends(nil, c.pending[i])
	c.pending[i] = c.pending[i][:0]
	c.pendingBuf[i] = c.pendingBuf[i][:0]
	return body
}

// absorbProfile feeds one shard's delivery profile to the round
// aggregator (no-op without a probe). Shards arrive in node order, the
// order the aggregator's tie-breaking needs.
func (c *coordinator) absorbProfile(shard int, d *deliveredReply) {
	if c.agg == nil {
		return
	}
	lo, _ := c.split.Bounds(shard)
	pi := 0
	for j, size := range d.sizes {
		for x := 0; x < size; x++ {
			c.agg.Deliver(lo+j, d.ports[pi])
			pi++
		}
	}
}

// roundEnd fires the probe's RoundEnd with the record aggregated from
// the collected profiles and the round's fault counts summed over the
// STEPPED replies.
func (c *coordinator) roundEnd(delivered, active int, fc faults.Counts) {
	if c.agg != nil {
		c.agg.RoundEnd(c.opts.Probe, c.rounds, delivered, active, c.halted, fc)
	}
}

// harvest ends the run: FINISH to every shard, collect FINAL replies
// and each shard's TELEMETRY ship-back, merge the workload outputs in
// shard order.
func (c *coordinator) harvest(runErr error) (Result, error) {
	if runErr != nil {
		return Result{}, runErr
	}
	c.phaseStart("harvest", c.rounds)
	if err := c.broadcast(frameFinish, func(int) []byte { return nil }); err != nil {
		return Result{}, err
	}
	deadline := time.Now().Add(c.tcp.timeout())
	res := Result{Rounds: c.rounds}
	if c.plan != nil {
		res.Faults = c.plan.Totals()
	}
	var parts [][]byte
	var final finalReply
	for i := range c.conns {
		body, err := c.expect(i, frameFinal, deadline)
		if err != nil {
			return Result{}, err
		}
		if err := parseFinalReply(body, &final); err != nil {
			return Result{}, fmt.Errorf("transport: shard %d: %w", i, err)
		}
		res.Messages += final.messages
		parts = append(parts, append([]byte(nil), final.result...))

		telBody, err := c.expect(i, frameTelemetry, deadline)
		if err != nil {
			return Result{}, err
		}
		wt := &wireTelemetry{}
		if err := json.Unmarshal(telBody, wt); err != nil {
			return Result{}, fmt.Errorf("transport: shard %d: decoding telemetry: %w", i, err)
		}
		c.shardTel[i] = wt
	}
	if c.inst.Finish != nil && c.inst.Merge != nil {
		out, err := c.inst.Merge(c.inst.Graph, parts)
		if err != nil {
			return Result{}, err
		}
		res.Output = out
	}
	return res, nil
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

// metricsStart registers the coordinator's instruments: the
// deterministic congest counters the in-process engines also export —
// including the fault counters when a plan is attached, same names as
// congest's metricsRunStart — plus the tcpnet traffic counters.
func (c *coordinator) metricsStart() (delivered, rounds *metrics.Counter) {
	reg := c.opts.Metrics
	if reg == nil {
		return nil, nil
	}
	if c.plan != nil {
		c.fcDropped = reg.Counter("congest_msgs_dropped_total")
		c.fcDuplicated = reg.Counter("congest_msgs_duplicated_total")
		c.fcDelayed = reg.Counter("congest_msgs_delayed_total")
		c.fcCrashed = reg.Counter("congest_node_crash_rounds_total")
	}
	return reg.Counter("congest_messages_delivered_total"), reg.Counter("congest_rounds_total")
}

// obsFaultRound folds one round's summed fault counts into the congest
// fault counters (no-op without a metrics registry).
func (c *coordinator) obsFaultRound(fc faults.Counts) {
	if c.fcDropped == nil {
		return
	}
	c.fcDropped.Add(fc.Dropped)
	c.fcDuplicated.Add(fc.Duplicated)
	c.fcDelayed.Add(fc.Delayed)
	c.fcCrashed.Add(fc.Crashed)
}

// metricsEnd exports the run's wire telemetry: aggregate and per-shard
// frame/byte/flush counters for the coordinator's side of every
// connection, per-frame-type directional counters, and — for shards
// that shipped their TELEMETRY frame — the shard-side tallies under
// tcpnet_shard_* (the counters that previously never left the shard
// process).
func (c *coordinator) metricsEnd(reg *metrics.Registry, elapsed time.Duration) {
	reg.Counter("congest_runs_total").Add(1)
	reg.Counter("congest_run_wall_ns_total").Add(elapsed.Nanoseconds())
	reg.Counter("tcpnet_relayed_messages_total").Add(c.relayed)
	var frames, bytes, flushes, flushNS int64
	var sentByType, recvByType [frameTypeCount]int64
	for i, fc := range c.conns {
		if fc == nil {
			continue
		}
		t := &fc.tally
		frames += t.frames()
		bytes += t.bytes()
		flushes += t.flushes
		flushNS += t.flushNS
		for typ := range t.sentByType {
			sentByType[typ] += t.sentByType[typ]
			recvByType[typ] += t.recvByType[typ]
		}
		reg.Counter(fmt.Sprintf("tcpnet_frames_total{shard=%d}", i)).Add(t.frames())
		reg.Counter(fmt.Sprintf("tcpnet_bytes_total{shard=%d}", i)).Add(t.bytes())
	}
	reg.Counter("tcpnet_frames_total").Add(frames)
	reg.Counter("tcpnet_bytes_total").Add(bytes)
	reg.Counter("tcpnet_flushes_total").Add(flushes)
	reg.Counter("tcpnet_flush_ns_total").Add(flushNS)
	for typ := byte(1); typ < frameTypeCount; typ++ {
		if n := sentByType[typ]; n > 0 {
			reg.Counter(fmt.Sprintf("tcpnet_frames_sent_total{type=%s}", frameName(typ))).Add(n)
		}
		if n := recvByType[typ]; n > 0 {
			reg.Counter(fmt.Sprintf("tcpnet_frames_recv_total{type=%s}", frameName(typ))).Add(n)
		}
	}
	for i, wt := range c.shardTel {
		if wt == nil {
			continue
		}
		reg.Counter(fmt.Sprintf("tcpnet_shard_frames_total{shard=%d}", i)).Add(wt.SentFrames + wt.RecvFrames)
		reg.Counter(fmt.Sprintf("tcpnet_shard_bytes_total{shard=%d}", i)).Add(wt.SentBytes + wt.RecvBytes)
		reg.Counter(fmt.Sprintf("tcpnet_shard_flush_ns_total{shard=%d}", i)).Add(wt.FlushNS)
		if wt.Faults.Any() {
			reg.Counter(fmt.Sprintf("tcpnet_shard_msgs_dropped_total{shard=%d}", i)).Add(wt.Faults.Dropped)
			reg.Counter(fmt.Sprintf("tcpnet_shard_msgs_duplicated_total{shard=%d}", i)).Add(wt.Faults.Duplicated)
			reg.Counter(fmt.Sprintf("tcpnet_shard_msgs_delayed_total{shard=%d}", i)).Add(wt.Faults.Delayed)
			reg.Counter(fmt.Sprintf("tcpnet_shard_node_crash_rounds_total{shard=%d}", i)).Add(wt.Faults.Crashed)
		}
	}
	reg.Gauge("tcpnet_shards").Set(float64(c.tcp.Shards))
}

// writeObs writes the merged observability document to ObsOut.
func (c *coordinator) writeObs(reason string, runErr error) error {
	return WriteObs(c.tcp.ObsOut, c.obsDoc(reason, runErr))
}

// obsDoc assembles the merged document from the coordinator's state:
// its own flight dump (attributed when the run failed), every shipped
// shard dump, both sides' wire tallies, the barrier timeline and the
// skew series.
func (c *coordinator) obsDoc(reason string, runErr error) *ObsDoc {
	doc := &ObsDoc{
		Schema:     ObsSchema,
		Backend:    "tcp",
		Spec:       c.spec,
		Shards:     c.tcp.Shards,
		Rounds:     c.rounds,
		Reason:     reason,
		ShardDumps: make([]*flightrec.Dump, c.tcp.Shards),
		Timeline:   c.timeline,
		Skew:       c.skew,
	}
	guilty, lastRound, phase, errMsg := -1, c.rounds, "", ""
	if runErr != nil {
		errMsg = runErr.Error()
		var se *shardError
		if errors.As(runErr, &se) {
			guilty, lastRound, phase = se.shard, se.lastRound, se.phase
		}
	}
	doc.GuiltyShard, doc.LastRound, doc.Phase, doc.Error = guilty, lastRound, phase, errMsg
	doc.Coordinator = c.rec.Dump(reason).Attribute(guilty, lastRound, phase, errMsg)
	for i, wt := range c.shardTel {
		if wt != nil {
			d := wt.Dump
			doc.ShardDumps[i] = &d
		}
	}
	for i, fc := range c.conns {
		if fc != nil {
			doc.Wire = append(doc.Wire, wireStats("coord", i, &fc.tally))
		}
	}
	for _, wt := range c.shardTel {
		if wt != nil {
			doc.Wire = append(doc.Wire, wt.WireStats)
		}
	}
	return doc
}

// watchSigterm dumps the flight recorder on SIGTERM. The handler runs
// concurrently with a possibly-blocked round loop, so it only touches
// the mutex-protected recorder — never the timeline/wire state — then
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
			doc := &ObsDoc{
				Schema:      ObsSchema,
				Backend:     "tcp",
				Spec:        c.spec,
				Shards:      c.tcp.Shards,
				Reason:      flightrec.ReasonSigterm,
				GuiltyShard: -1,
				LastRound:   dump.LastRound,
				Error:       "terminated by SIGTERM",
				Coordinator: dump,
				ShardDumps:  make([]*flightrec.Dump, c.tcp.Shards),
			}
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
