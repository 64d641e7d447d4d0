package transport

// The TCP backend's coordinator: it listens on loopback (or any
// host:port), spawns one cmd/tcpnode process per shard, starts the run and
// then only listens (drive):
//
//	accept    ←HELLO        version, shard index, peer listen port
//	spec      SPEC→         the replayable spec, peer address table, run token
//	init      ←INITACK      every shard has its peers and has run Init
//	rounds    ←REPORT*      the shards run the rounds among themselves
//	                        (shardrun.go); probed or alone, each reports each
//	harvest   ←FINAL        rounds run, message counts, per-node records
//	          ←TELEMETRY    wire tallies, fault totals [+ flight dump,
//	                        when SPEC asks: an -obsout run]
//	reap                    close, then wait for / kill the runtimes
//
// It takes each round's REPORTs in shard (= node) order, so its probe
// stream is byte-identical to a sequential in-process run, and checks
// every field of a frame (absorb*) before any of it indexes its state.
// Wall clocks never enter the probe stream: an always-on flight recorder,
// and with a registry or -obsout file a timeline (accept, spec, then the
// shards' peer waits per round, shipped with FINAL), flow to the
// registry and to the ObsDoc written on every exit, panic and SIGTERM
// included.
//
// Failure policy: every wait has a deadline. The coordinator's own are one
// timeout each; in the rounds the shards wait on each other, one timeout
// per peer read. A shard that wedges, dies or lies is named by a peer that
// waited on it, in an ABORT; a dead shard's own link fails here too, and
// the coordinator then waits, one timeout at most, for what its peers
// report; a lone shard, which no peer watches, reports each round to a
// timed wait here. Either way the error comes within two timeouts, never a hang.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
	"almostmix/internal/metrics"
)

// ShardHandle controls one spawned shard runtime: Wait blocks until it
// exits and reports its exit error, Kill force-terminates it (safe after
// exit).
type ShardHandle struct {
	Wait func() error
	Kill func()
}

// SpawnFunc starts the shard runtime for one shard index, told to dial
// the coordinator at addr; tests spawn goroutines instead of processes.
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
	// Timeout bounds every wait on the wire — the coordinator's, and each
	// shard's on a peer's frame — and the post-run process wait; default 60s.
	Timeout time.Duration
	// Spawn overrides process spawning (tests); nil execs NodeBin.
	Spawn SpawnFunc
	// ObsOut, when set, is where the merged observability document (ObsDoc)
	// is written on every exit: finish, death, deadline, panic, SIGTERM.
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
	c, err := t.newCoordinator(spec, opts)
	if err != nil {
		return Result{}, err
	}
	return c.run()
}

// newCoordinator builds the spec's instance and checks the shard count
// against it.
func (t TCP) newCoordinator(spec Spec, opts Options) (*coordinator, error) {
	_, inst, err := buildInstance(spec)
	if err != nil {
		return nil, err
	}
	if n := inst.Graph.N(); t.Shards < 1 || t.Shards > n {
		return nil, fmt.Errorf("transport: %d shards for %d nodes (need 1 ≤ shards ≤ n)", t.Shards, n)
	}
	return &coordinator{tcp: t, spec: spec, inst: inst, opts: opts}, nil
}

// classifyReason maps a run error to a flight-recorder dump reason: a
// deadline is a stall, a shard's connection error its death.
func classifyReason(err error) string {
	if err == nil {
		return flightrec.ReasonFinish
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return flightrec.ReasonBarrierDeadline
	}
	var se *shardError
	if errors.As(err, &se) && se.What != "reply" {
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
	peers   []string      // shard i's peer listen address

	rounds   int
	limit    bool          // the round limit ended the run (FINAL)
	messages int           // Σ FINAL message counts
	records  [][]uint64    // FINAL records, one per node
	faults   faults.Counts // Σ the shards' plan totals (TELEMETRY)
	// The round being reported, with a probe: the sums of its REPORTs, and
	// the round the skip rule jumps to after it (shard 0's REPORT names it,
	// the others must agree).
	halted, active, delivered int
	roundFaults               faults.Counts
	skipTo                    int
	reply                     stepReply // parse scratch
	haltedNode                []bool    // with a probe, by node: its halt event came

	// Readers pass each link's frames on through in; queue[i] holds shard
	// i's not yet asked for; ended[i] says it sent FINAL or ABORT, or lost
	// its link. A wait on in ends at the deadline, if one is set.
	in       chan inFrame
	queue    [][]inFrame
	ended    []bool
	quit     chan struct{}
	readers  sync.WaitGroup
	hung     sync.Once
	deadline time.Time

	// Attribution: the flight recorder, and per shard the last round it
	// reported (probed or alone) and the last frame type it sent us.
	rec        *flightrec.Recorder
	shardRound []int
	lastType   []byte
	phase      string
	phaseRound int

	// The timeline and skew, kept with a registry or ObsOut (obsOn), and
	// the registry's congest_* block and flush-latency histogram.
	obsOn    bool
	timeline []TimelineRow
	skew     []RoundSkew
	shardTel []*wireTelemetry
	stats    [][]roundStat // per shard, its timings of every round
	rm       *congest.RunMetrics
	flushNS  *metrics.Histogram

	agg *congest.RoundAggregator // the probe's round records; nil without one
}

// inFrame is one frame a reader read, or the error that ended its link.
type inFrame struct {
	shard int
	typ   byte
	body  []byte
	err   error
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
		c.hangUp()
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
	c.hangUp() // the tallies are final once the readers are gone

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
	return res, err // the zero Result on error, but for a round-limit exit
}

// prepare builds the per-run state.
func (c *coordinator) prepare() {
	k := c.tcp.Shards
	c.split = congest.Split{N: c.inst.Graph.N(), K: k}
	c.in, c.quit = make(chan inFrame), make(chan struct{})
	c.queue, c.ended = make([][]inFrame, k), make([]bool, k)
	c.rec = flightrec.New("coord", -1, flightrec.DefaultCapacity)
	c.shardRound, c.lastType = make([]int, k), make([]byte, k)
	c.shardTel, c.stats = make([]*wireTelemetry, k), make([][]roundStat, k)
	c.obsOn = c.tcp.ObsOut != "" || c.opts.Metrics != nil
	if c.opts.Probe != nil {
		c.haltedNode = make([]bool, c.inst.Graph.N())
	}
	if reg := c.opts.Metrics; reg != nil {
		c.rm = congest.StartRunMetrics(reg, c.inst.Faults != nil)
		c.flushNS = reg.Histogram("tcpnet_flush_ns", metrics.WallBuckets())
	}
}

// phaseStart marks the coordinator's entry into a phase, for attribution.
func (c *coordinator) phaseStart(phase string, round int) {
	if phase == c.phase && round == c.phaseRound {
		return
	}
	c.phase, c.phaseRound = phase, round
	c.rec.Record(flightrec.KindBarrier, "", round, -1, 0, phase)
}

// notePhase adds a timeline row: shard's wall time since t0 in the phase.
func (c *coordinator) notePhase(shard int, t0 time.Time) {
	if c.obsOn {
		c.timeline = append(c.timeline, TimelineRow{Round: c.phaseRound, Shard: shard, Phase: c.phase, WallNS: time.Since(t0).Nanoseconds()})
	}
}

// shardFail records a failure against shard i, attributed.
func (c *coordinator) shardFail(i int, what string, err error) error {
	kind := flightrec.KindError
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		kind = flightrec.KindTimeout
	}
	c.rec.Record(kind, frameName(c.lastType[i]), c.phaseRound, i, 0, err.Error())
	return &shardError{Shard: i, What: what, Phase: c.phase, LastRound: c.shardRound[i], LastFrame: frameName(c.lastType[i]), err: err}
}

// spawn starts the shard runtimes; the default execs the tcpnode binary
// with the shard index and coordinator address, stderr passed through.
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

// accept collects one HELLO-identified connection per shard under the
// deadline, and each shard's peer address: its HELLO's port, on its host.
func (c *coordinator) accept(ln net.Listener) error {
	c.phaseStart("accept", -1)
	deadline := time.Now().Add(c.tcp.timeout())
	c.conns, c.peers = make([]*frameConn, c.tcp.Shards), make([]string, c.tcp.Shards)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for got := 0; got < c.tcp.Shards; got++ {
		t0 := time.Now()
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: accepting shard connections (%d/%d): %w", got, c.tcp.Shards, err)
		}
		fc := newFrameConn(conn, &connTally{})
		conn.SetReadDeadline(deadline)
		typ, body, err := fc.read()
		if err != nil || typ != frameHello {
			conn.Close()
			return fmt.Errorf("transport: shard handshake: type=%d err=%v", typ, err)
		}
		shard, port, err := parseHello(body)
		if err == nil && (shard >= c.tcp.Shards || c.conns[shard] != nil || port == 0 || port > 65535) {
			err = fmt.Errorf("transport: bad or duplicate shard index %d (peer port %d) in handshake", shard, port)
		}
		if err != nil {
			conn.Close()
			return err
		}
		host, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
		c.conns[shard], c.peers[shard] = fc, net.JoinHostPort(host, strconv.FormatUint(port, 10))
		c.lastType[shard] = frameHello
		c.rec.Record(flightrec.KindFrameRecv, "HELLO", -1, shard, len(body), "")
		c.notePhase(shard, t0)
	}
	return nil
}

// sendSpec sends every shard the spec, the peer address table and a fresh
// run token, which keeps stray dialers out; nothing is written after it.
func (c *coordinator) sendSpec() error {
	c.phaseStart("spec", -1)
	body, err := json.Marshal(wireSpec{
		Version:    wireVersion,
		Shards:     c.tcp.Shards,
		Peers:      c.peers,
		Token:      rand.Uint64(),
		Timeout:    int64(c.tcp.timeout()),
		Probe:      c.opts.Probe != nil,
		Timeline:   c.obsOn,
		FlightDump: c.tcp.ObsOut != "",
		Spec:       c.spec,
	})
	if err != nil {
		return fmt.Errorf("transport: encode spec: %w", err)
	}
	deadline := time.Now().Add(c.tcp.timeout())
	for i, fc := range c.conns {
		t0 := time.Now()
		fc.conn.SetDeadline(deadline)
		if err := fc.write(frameSpec, body); err != nil {
			return c.shardFail(i, "write", err)
		}
		c.flushNS.Observe(fc.tally.flushNS)
		c.rec.Record(flightrec.KindFrameSent, "SPEC", -1, i, len(body), "")
		c.notePhase(i, t0)
		fc.conn.SetDeadline(time.Time{})
	}
	return nil
}

// hangUp ends the run on the wire, once: it closes every shard link,
// which the shards take for the end of the run, and waits for the readers.
func (c *coordinator) hangUp() {
	c.hung.Do(func() {
		close(c.quit)
		for _, fc := range c.conns {
			if fc != nil {
				fc.conn.Close()
			}
		}
		c.readers.Wait()
	})
}

// read is shard i's reader: it passes on every frame (the body copied but
// for the link's last, TELEMETRY or ABORT) and the error that ends it.
func (c *coordinator) read(i int) {
	defer c.readers.Done()
	for {
		typ, body, err := c.conns[i].read()
		last := err != nil || typ == frameTelemetry || typ == frameAbort
		if !last {
			body = bytes.Clone(body)
		}
		select {
		case c.in <- inFrame{shard: i, typ: typ, body: body, err: err}:
		case <-c.quit:
			return
		}
		if last {
			return
		}
	}
}

// next waits for the next frame any reader passes on; false when the
// deadline passes first.
func (c *coordinator) next() (inFrame, bool) {
	var expire <-chan time.Time
	if !c.deadline.IsZero() {
		t := time.NewTimer(time.Until(c.deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case f := <-c.in:
		if f.err == nil {
			c.lastType[f.shard] = f.typ
			c.rec.Record(flightrec.KindFrameRecv, frameName(f.typ), c.phaseRound, f.shard, len(f.body), "")
		}
		c.ended[f.shard] = c.ended[f.shard] || f.err != nil || f.typ == frameFinal || f.typ == frameAbort
		return f, true
	case <-expire:
		return inFrame{}, false
	}
}

// take returns shard i's next frame, which has to be of a wanted type.
// Other shards' frames queue up meanwhile; an ABORT or a failed link of
// any shard ends the wait with the run's error.
func (c *coordinator) take(i int, want ...byte) (byte, []byte, error) {
	for len(c.queue[i]) == 0 {
		f, ok := c.next()
		if !ok {
			return 0, nil, c.shardFail(i, "read", os.ErrDeadlineExceeded)
		}
		if f.err != nil || f.typ == frameAbort {
			return 0, nil, c.failure(f)
		}
		c.queue[f.shard] = append(c.queue[f.shard], f)
	}
	f := c.queue[i][0]
	c.queue[i] = c.queue[i][1:]
	if !slices.Contains(want, f.typ) {
		return 0, nil, c.shardFail(i, "read", fmt.Errorf("frame type %s, want %s", frameName(f.typ), frameName(want[0])))
	}
	return f.typ, f.body, nil
}

// failure turns an ABORT, or a failed link, into the run's error. A dead
// shard that had its peers (it sent INITACK) is reported by them, with its
// last round and frame: the coordinator waits for that, a timeout at most,
// until every shard has reported or finished, before it blames the link.
func (c *coordinator) failure(f inFrame) error {
	if f.err == nil {
		return c.aborted(f)
	}
	err := c.shardFail(f.shard, "read", f.err)
	if c.lastType[f.shard] == frameHello {
		return err
	}
	c.deadline = time.Now().Add(c.tcp.timeout())
	for slices.Contains(c.ended, false) {
		g, ok := c.next()
		if !ok {
			break
		}
		if g.err == nil && g.typ == frameAbort {
			return c.aborted(g)
		}
	}
	return err
}

// aborted reads shard f.shard's ABORT: the failure it reports, attributed
// to the shard it names.
func (c *coordinator) aborted(f inFrame) error {
	e := &shardError{}
	if err := json.Unmarshal(f.body, e); err != nil || e.Shard < 0 || e.Shard >= c.tcp.Shards {
		return c.shardFail(f.shard, "reply", fmt.Errorf("ABORT %q: %v", f.body, err))
	}
	c.rec.Record(flightrec.KindError, e.LastFrame, e.LastRound, e.Shard, 0, e.Cause)
	e.err = fmt.Errorf("shard %d reports: %w", f.shard, reported{e})
	return e
}

// drive is the protocol: accept → spec → init → (REPORT per round, with a
// probe)* → harvest, until shard 0's FINAL says the rounds are over.
func (c *coordinator) drive(ln net.Listener) (Result, error) {
	if err := c.accept(ln); err != nil {
		return Result{}, err
	}
	ln.Close()
	if err := c.sendSpec(); err != nil {
		return Result{}, err
	}
	if p := c.opts.Probe; p != nil {
		c.agg = congest.NewRoundAggregator(c.inst.Graph)
		p.RunStart(congest.RunInfo{Nodes: c.inst.Graph.N(), Edges: c.inst.Graph.M()})
	}
	for i := range c.conns {
		c.readers.Add(1)
		go c.read(i)
	}
	c.phaseStart("init", 0)
	c.deadline = time.Now().Add(c.tcp.timeout())
	for i := range c.conns {
		if _, body, err := c.take(i, frameInitAck); err != nil {
			return Result{}, err
		} else if err := c.absorbInitAck(i, body); err != nil {
			return Result{}, c.shardFail(i, "reply", err)
		}
	}
	c.deadline = time.Time{} // in the rounds the shards time each other out
	for {
		if c.tcp.Shards == 1 { // but for a lone one: each REPORT is timed here
			c.deadline = time.Now().Add(c.tcp.timeout())
		}
		c.phaseStart("rounds", c.rounds+1)
		typ, body, err := c.take(0, frameReport, frameFinal)
		if err != nil {
			return Result{}, err
		}
		if typ == frameFinal {
			return c.harvest(body)
		}
		c.halted, c.active, c.delivered, c.roundFaults = 0, 0, 0, faults.Counts{}
		for i := range c.conns {
			if i > 0 {
				if _, body, err = c.take(i, frameReport); err != nil {
					return Result{}, err
				}
			}
			if err := c.absorbReport(i, body); err != nil {
				return Result{}, c.shardFail(i, "reply", err)
			}
		}
		c.rounds++
		if c.agg != nil {
			c.agg.RoundEnd(c.opts.Probe, c.rounds, c.delivered, c.active, c.halted, c.roundFaults)
		}
		c.skipped()
	}
}

// skipped moves past the rounds the skip rule jumped after the round just
// reported. With a probe each gets the record of the no-op round it
// replaces, built here as the engine builds it (Network.skipTo): nothing
// delivered, the halted count unchanged, Active the nodes neither halted
// nor crashed, and skippedFaults.
func (c *coordinator) skipped() {
	plan := c.inst.Faults
	for c.agg != nil && c.rounds < c.skipTo {
		c.rounds++
		active := 0
		for v, halted := range c.haltedNode {
			if !halted && (plan == nil || !plan.Crashed(v, c.rounds)) {
				active++
			}
		}
		c.agg.RoundEnd(c.opts.Probe, c.rounds, 0, active, c.halted, c.skippedFaults(c.rounds))
	}
	c.rounds = max(c.rounds, c.skipTo)
	for i := range c.shardRound {
		c.shardRound[i] = c.rounds
	}
}

// skippedFaults is a skipped round's fault counts: its crashed nodes, from
// the coordinator's replica of the plan; nothing is in flight to drop,
// duplicate or delay.
func (c *coordinator) skippedFaults(round int) (fc faults.Counts) {
	if plan := c.inst.Faults; plan != nil {
		fc.Crashed = int64(plan.CrashedCount(round, 0, c.inst.Graph.N()))
	}
	return fc
}

// absorbInitAck reads one INITACK: empty, or with a probe Init's step head.
func (c *coordinator) absorbInitAck(shard int, body []byte) error {
	cur := cursor{b: body}
	if c.agg == nil {
		return cur.done("init ack")
	}
	return c.takeStepHead(shard, &cur)
}

// absorbReport reads one shard's REPORT of round c.rounds+1 — the round,
// the rounds skipped after it and, with a probe, its delivered total, per
// owned node the inbox size and arrival ports, the step head — checking the
// round, the skip (within the round limit, the same at every shard), each
// port and the sizes' sum. Without a probe only a lone shard reports, the
// round and the skip alone.
func (c *coordinator) absorbReport(shard int, body []byte) error {
	if c.agg == nil && c.tcp.Shards > 1 {
		return errors.New("REPORT, and no probe asked for it")
	}
	cur := cursor{b: body}
	round := c.rounds + 1
	if got := cur.int("report round"); cur.err == nil && got != round {
		return fmt.Errorf("REPORT of round %d in round %d", got, round)
	}
	skip := cur.int("report skip")
	switch {
	case cur.err != nil:
	case shard == 0 && skip > c.inst.MaxRounds-round:
		return fmt.Errorf("REPORT skips %d rounds after round %d, past the limit of %d", skip, round, c.inst.MaxRounds)
	case shard == 0:
		c.skipTo = round + skip
	case round+skip != c.skipTo:
		return fmt.Errorf("REPORT skips %d rounds after round %d, shard 0 %d", skip, round, c.skipTo-round)
	}
	if c.agg != nil {
		delivered, sum := cur.int("report delivered"), 0
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
		if cur.err == nil && sum != delivered {
			return fmt.Errorf("delivered %d but the inbox sizes sum to %d", delivered, sum)
		}
		if err := c.takeStepHead(shard, &cur); err != nil {
			return err
		}
		c.delivered += delivered
	}
	if err := cur.done("report"); err != nil {
		return err
	}
	c.shardRound[shard] = c.rounds + 1
	return nil
}

// takeStepHead reads the rest of a frame as a step head, checks it (counts
// within the owned nodes, event nodes owned) and applies it: the probe's
// events, and the round's sums.
func (c *coordinator) takeStepHead(shard int, cur *cursor) error {
	r := &c.reply
	cur.stepHead(r)
	if err := cur.done("step head"); err != nil {
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
	p := c.opts.Probe
	for _, e := range r.events {
		if e.halt {
			c.haltedNode[e.node] = true
			p.NodeHalted(e.node, e.round)
		} else {
			p.PhaseMark(e.node, e.round, e.name)
		}
	}
	c.halted += r.halted
	c.active += r.active
	c.roundFaults.Add(r.faults)
	return nil
}

// harvest ends the run from shard 0's FINAL: the others' FINALs (records
// concatenate in shard order), every shard's TELEMETRY, then the output
// and the round timings.
func (c *coordinator) harvest(final []byte) (Result, error) {
	c.phaseStart("harvest", c.rounds)
	c.deadline = time.Now().Add(c.tcp.timeout())
	for i := range c.conns {
		var err error
		if i > 0 {
			_, final, err = c.take(i, frameFinal)
		}
		if err == nil {
			if err = c.absorbFinal(i, final); err != nil {
				err = c.shardFail(i, "reply", err)
			}
		}
		if err != nil {
			return Result{}, err
		}
	}
	for i := range c.conns {
		_, body, err := c.take(i, frameTelemetry)
		if err == nil {
			if err = c.absorbTelemetry(i, body); err != nil {
				err = c.shardFail(i, "reply", err)
			}
		}
		if err != nil {
			return Result{}, err
		}
	}
	c.roundTimes()
	res := Result{Rounds: c.rounds, Messages: c.messages, Faults: c.faults}
	var err error
	if res.Output, err = c.inst.reduce(c.records); err != nil {
		return Result{}, err
	}
	if c.limit {
		err = fmt.Errorf("transport: after %d rounds: %w", c.rounds, congest.ErrRoundLimit)
	}
	return res, err
}

// absorbFinal reads one FINAL: the rounds the shard ran and whether the
// round limit ended them (shard 0's set the run's, the others must agree),
// its message count, its owned nodes' records and, with a timeline, its
// timings of every round.
func (c *coordinator) absorbFinal(shard int, body []byte) error {
	lo, hi := c.split.Bounds(shard)
	cur := cursor{b: body}
	rounds, limit := cur.int("final rounds"), cur.byte("final limit flag")
	if cur.err == nil && (limit > 1 || (shard > 0 || c.agg != nil || c.tcp.Shards == 1) && rounds != c.rounds || shard > 0 && (limit == 1) != c.limit) {
		return fmt.Errorf("FINAL after %d rounds (limit flag %d) in a run of %d rounds (limit %t)", rounds, limit, c.rounds, c.limit)
	}
	c.rounds, c.limit = rounds, limit == 1
	c.messages += cur.int("final messages")
	c.records = cur.records(c.records, hi-lo)
	if c.obsOn && cur.err == nil {
		stats, last := make([]roundStat, cur.length("round timings")), int64(0)
		for i := range stats {
			for _, v := range stats[i].fields() {
				*v = int64(cur.int("round timing"))
			}
			if r := stats[i].round; cur.err == nil && (r <= last || r > int64(rounds)) {
				return fmt.Errorf("FINAL of %d rounds times round %d after round %d", rounds, r, last)
			}
			last = stats[i].round
		}
		same := func(a, b roundStat) bool { return a.round == b.round }
		if cur.err == nil && shard > 0 && !slices.EqualFunc(stats, c.stats[0], same) {
			return fmt.Errorf("FINAL times %d executed rounds, not shard 0's %d", len(stats), len(c.stats[0]))
		}
		c.stats[shard] = stats
	}
	return cur.done("final reply")
}

// absorbTelemetry reads one TELEMETRY: the shard's rows and, exactly when
// SPEC asked (an -obsout run), its own flight dump of a finished run.
func (c *coordinator) absorbTelemetry(shard int, body []byte) error {
	wt := &wireTelemetry{}
	if err := json.Unmarshal(body, wt); err != nil {
		return fmt.Errorf("decoding telemetry: %w", err)
	}
	if wt.Endpoint != "shard" || wt.Shard != shard {
		return fmt.Errorf("telemetry row of %s %d", wt.Endpoint, wt.Shard) // it is rendered under those names
	}
	if p := wt.Peer; (p != nil) != (c.tcp.Shards > 1) || p != nil && (p.Endpoint != "peer" || p.Shard != shard) {
		return fmt.Errorf("peer telemetry row %+v of shard %d", p, shard)
	}
	switch asked := c.tcp.ObsOut != ""; {
	case wt.Dump != nil && !asked:
		return errors.New("TELEMETRY carries a flight dump, and SPEC did not ask for one")
	case wt.Dump == nil && asked:
		return errors.New("TELEMETRY carries no flight dump, and SPEC asked for one")
	case asked:
		if err := validShardDump(shard, wt.Dump); err != nil {
			return err
		}
	}
	lo, hi := c.split.Bounds(shard)
	if wt.NodeSteps < 0 || wt.NodeSteps > int64(len(c.stats[shard]))*int64(hi-lo) {
		return fmt.Errorf("TELEMETRY counts %d node steps in %d timed rounds of %d nodes", wt.NodeSteps, len(c.stats[shard]), hi-lo)
	}
	c.faults.Add(wt.Faults)
	c.shardTel[shard] = wt
	return nil
}

// roundTimes folds the shards' timings of the executed rounds into
// peer-wait rows, each round's skew (the spread of the waits: the last
// shard ready waits least) and the congest_* rounds, a round's wall time
// its slowest shard's; every other round of the run the skip rule jumped,
// counted as skipped with skippedFaults, as the engine counts it. The
// node steps each shard's TELEMETRY counted go to the block in one add.
func (c *coordinator) roundTimes() {
	if !c.obsOn {
		return
	}
	for _, wt := range c.shardTel {
		c.rm.Steps(wt.NodeSteps)
	}
	executed := c.stats[0]
	for r, x := 1, 0; r <= c.rounds; r++ {
		if x == len(executed) || executed[x].round != int64(r) {
			c.rm.Skipped(c.skippedFaults(r))
			continue
		}
		var fc faults.Counts
		wall, delivered, least, most := int64(0), 0, int64(-1), int64(0)
		for i, stats := range c.stats {
			st := stats[x]
			c.timeline = append(c.timeline, TimelineRow{Round: r, Shard: i, Phase: "peer-wait", WallNS: st.waitNS})
			wall, most, delivered = max(wall, st.wallNS), max(most, st.waitNS), delivered+int(st.delivered)
			if least < 0 || st.waitNS < least {
				least = st.waitNS
			}
			fc.Add(st.faults)
		}
		c.skew = append(c.skew, RoundSkew{Round: r, SkewNS: most - least})
		c.rm.Round(wall, delivered, fc)
		x++
	}
}

// reap closes out the shard runtimes: killed at once after an error; on
// success each gets one timeout to exit on its own before it is killed.
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

// wireRows is the run's wire tallies: the coordinator's side of every
// accepted link, then the shard and peer rows each TELEMETRY shipped.
func (c *coordinator) wireRows() []WireStats {
	var rows, peers []WireStats
	for i, fc := range c.conns {
		if fc != nil {
			rows = append(rows, wireStats("coord", i, fc.tally))
		}
	}
	for _, wt := range c.shardTel {
		if wt != nil {
			rows = append(rows, wt.WireStats)
			if wt.Peer != nil {
				peers = append(peers, *wt.Peer)
			}
		}
	}
	return append(rows, peers...)
}

// metricsEnd closes the run's congest_* block and exports the peer-wait
// and skew histograms and frame/byte/flush counters that count every frame
// once — a coordinator link's on its coordinator side, a peer link's on its
// sender's — plus each shard's coordinator-link side as tcpnet_shard_*.
func (c *coordinator) metricsEnd(reg *metrics.Registry, wire []WireStats) {
	c.rm.End()
	wait := reg.Histogram("tcpnet_peer_wait_ns", metrics.WallBuckets())
	for _, row := range c.timeline {
		if row.Phase == "peer-wait" {
			wait.Observe(row.WallNS)
		}
	}
	skew := reg.Histogram("tcpnet_round_skew_ns", metrics.WallBuckets())
	for _, s := range c.skew {
		skew.Observe(s.SkewNS)
	}
	frames, bytes := reg.Counter("tcpnet_frames_total"), reg.Counter("tcpnet_bytes_total")
	flushes, flushNS := reg.Counter("tcpnet_flushes_total"), reg.Counter("tcpnet_flush_ns_total")
	for _, ws := range wire {
		f, b := ws.SentFrames+ws.RecvFrames, ws.SentBytes+ws.RecvBytes
		switch ws.Endpoint {
		case "shard":
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
		case "peer":
			f, b, ws.RecvByType = ws.SentFrames, ws.SentBytes, nil
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

// obsHeader is the document's fixed facts and a recorder dump: all a
// signal handler racing the drive loop may touch.
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

// obsDoc assembles the merged document: the coordinator's flight dump
// (attributed when the run failed), every shipped one, the wire tallies,
// the timeline and the skew series.
func (c *coordinator) obsDoc(reason string, runErr error, wire []WireStats) *ObsDoc {
	guilty, lastRound, phase, errMsg := -1, c.rounds, "", ""
	if runErr != nil {
		errMsg = runErr.Error()
		var se *shardError
		if errors.As(runErr, &se) {
			guilty, lastRound, phase = se.Shard, se.LastRound, se.Phase
		}
	}
	doc := c.obsHeader(c.rec.Dump(reason), guilty, lastRound, phase, errMsg)
	doc.Rounds = c.rounds
	doc.Wire, doc.Timeline, doc.Skew = wire, c.timeline, c.skew
	for i, wt := range c.shardTel {
		if wt != nil {
			doc.ShardDumps[i] = wt.Dump
		}
	}
	return doc
}

// watchSigterm dumps the flight recorder on SIGTERM. Racing the drive
// loop, it writes the document's header only, then restores the default
// disposition and re-delivers the signal so the process still dies.
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
