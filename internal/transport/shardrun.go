package transport

// The shard side of the TCP backend: dial the coordinator with backoff,
// replay the spec into a congest.Shard over part i of congest.Split,
// connect to every other shard, then run the rounds with the peers alone.
// A round is one ROUND frame to each peer and one from each: this shard's
// delivery counts and, unless they let the round look quiet, its step —
// its halted count, the earliest round its nodes sleep until and the sends
// bound for that peer. From the same counts every shard applies the quiet
// rule, the skip rule, the round limit and the all-halted test, so all
// stop, and jump over idle rounds, on the same round; a shard that held its
// step back takes it once some peer's frame shows the round is not quiet,
// and sends it in a SENDS frame. The coordinator hears a REPORT per round
// when it has a probe or the shard is alone, then FINAL and TELEMETRY — or
// an ABORT naming the peer that failed. cmd/tcpnode wraps DialShard +
// ServeShard; tests run ServeShard on goroutines, under the race detector.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
)

// ShardConfig tunes a shard runtime beyond what the wire spec carries.
type ShardConfig struct {
	// FailAtRound > 0 makes the runtime drop every connection just before
	// it steps that round (1-based), whichever frame carries the step
	// (ROUND, or SENDS for a step held back). 0 disables.
	FailAtRound int
	// StallAtRound > 0 makes the runtime stop at the same point with every
	// connection held open: its peers' read deadline (or, alone, the
	// coordinator's) has to surface it.
	StallAtRound int
	// Recorder is the shard's flight recorder (cmd/tcpnode passes one it
	// also dumps on panic/SIGTERM); ServeShard makes one when nil. Its dump
	// ships back in the TELEMETRY frame when SPEC asks, i.e. for an -obsout
	// run.
	Recorder *flightrec.Recorder
}

// peerConnHook, when set, wraps every peer connection a shard opens,
// dialed or accepted: the tests' scripted peers and shrunken buffers.
var peerConnHook func(shard int, conn net.Conn) net.Conn

// DialShard connects to the coordinator, retrying with doubling backoff
// (10ms up to 500ms per wait) until the budget runs out: the coordinator
// may not be accepting yet when a shard starts.
func DialShard(addr string, budget time.Duration) (net.Conn, error) {
	if budget <= 0 {
		budget = 10 * time.Second
	}
	deadline := time.Now().Add(budget)
	backoff := 10 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("transport: dialing coordinator %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// ServeShard runs one shard endpoint over an established coordinator
// connection: peer listener, handshake, spec replay, peer mesh, rounds.
// It returns nil once TELEMETRY is sent, or the coordinator ended the run
// first (its teardown after an error elsewhere).
func ServeShard(conn net.Conn, shard int, cfg ShardConfig) error {
	defer conn.Close()
	fc := newFrameConn(conn, &connTally{})
	host, _, _ := net.SplitHostPort(conn.LocalAddr().String())
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("transport: shard %d: peer listener: %w", shard, err)
	}
	defer ln.Close()
	if err := fc.write(frameHello, appendHello(nil, shard, uint64(ln.Addr().(*net.TCPAddr).Port))); err != nil {
		return err
	}
	typ, body, err := fc.read()
	if err == nil && typ != frameSpec {
		err = fmt.Errorf("frame type %d, want SPEC", typ)
	}
	var ws wireSpec
	if err == nil {
		err = json.Unmarshal(body, &ws)
	}
	if err != nil {
		return fmt.Errorf("transport: shard %d: reading spec: %w", shard, err)
	}
	if ws.Version != wireVersion {
		return fmt.Errorf("transport: shard %d: protocol version mismatch: coordinator %d, this build %d", shard, ws.Version, wireVersion)
	}
	if shard < 0 || shard >= ws.Shards || len(ws.Peers) != ws.Shards || ws.Timeout <= 0 {
		return fmt.Errorf("transport: shard index %d outside layout of %d shards (%d peer addresses)", shard, ws.Shards, len(ws.Peers))
	}
	wl, inst, err := buildInstance(ws.Spec)
	if err != nil {
		return err
	}
	split := congest.Split{N: inst.Graph.N(), K: ws.Shards}
	lo, hi := split.Bounds(shard)
	net := congest.NewNetwork(inst.Graph, inst.Programs, inst.Source)
	if inst.Faults != nil {
		net.SetFaults(inst.Faults) // rebuilt from the spec, identical on every process
	}
	s, err := congest.NewShard(net, split, shard)
	if err != nil {
		return err
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = flightrec.New("shard", shard, flightrec.DefaultCapacity)
	}
	r := &shardRuntime{
		fc: fc, shard: shard, s: s, wl: wl, inst: inst, split: split, lo: lo, hi: hi, cfg: cfg, rec: rec, ws: ws,
		links: make([]*peerLink, ws.Shards), peerTally: &connTally{}, gone: make(chan struct{}),
	}
	go func() {
		fc.r.ReadByte() // nothing comes after SPEC: this returns when the coordinator hangs up
		close(r.gone)
	}()
	r.closeWhenGone(ln)
	defer func() {
		conn.Close()
		<-r.gone
		r.stopWriters()
	}()
	return r.run(ln)
}

// peerLink is this shard's end of its link to one peer: the round loop
// reads it, and a writer goroutine of its own writes the frames it is
// handed through out (and hands back through free), so two shards that
// write each other large frames at once never wait on each other's reads.
type peerLink struct {
	peer      int
	fc        *frameConn
	out, free chan []byte
	// What the peer's frames of the round in progress said.
	stepped, halted int
	// Its ROUND's deliver counts, and the earliest round its nodes sleep
	// until as its step before last (slept) and its last step (wake) said.
	delivered, pending, slept, wake int
	lastRound                       int  // the peer's last completed round
	lastType                        byte // and the last frame read from it
}

func newPeerLink(peer int, fc *frameConn) *peerLink {
	l := &peerLink{peer: peer, fc: fc, out: make(chan []byte, 1), free: make(chan []byte, 1)}
	l.free <- nil
	return l
}

// shardRuntime is the per-run state of one ServeShard call. Frame buffers
// are reused across rounds.
type shardRuntime struct {
	fc     *frameConn // the coordinator link
	shard  int
	s      *congest.Shard
	wl     Workload
	inst   *Instance
	split  congest.Split
	lo, hi int
	cfg    ShardConfig
	rec    *flightrec.Recorder
	ws     wireSpec
	// links is by peer index, nil at this shard's own; peerTally counts all
	// their frames. gone closes when the coordinator link ends.
	links     []*peerLink
	peerTally *connTally
	writers   sync.WaitGroup
	stopping  sync.Once
	gone      chan struct{}

	steps              int         // rounds run, skipped ones included
	delivered, pending int         // the deliver phase of the round in progress
	slept, wake        int         // the earliest round the nodes sleep until, before and after the last step
	reply              stepReply   // the last step's head
	body               []byte      // coordinator frame scratch
	stats              []roundStat // with a timeline, one per executed round
	waitNS             int64       // the round's peer wait so far
}

// closeWhenGone closes c once the coordinator link ends.
func (r *shardRuntime) closeWhenGone(c io.Closer) {
	go func() {
		<-r.gone
		c.Close()
	}()
}

// stopWriters lets every peer writer write the frame it holds, and end.
func (r *shardRuntime) stopWriters() {
	r.stopping.Do(func() {
		for _, l := range r.links {
			if l != nil {
				close(l.out)
			}
		}
		r.writers.Wait()
	})
}

// run is the shard's life after SPEC. A peer's failure is reported to the
// coordinator, which ends the run; the links stay open until then, so the
// first report names the shard that failed, not one that lost a link.
func (r *shardRuntime) run(ln net.Listener) error {
	err := r.rounds(ln)
	var se *shardError
	if !errors.As(err, &se) || errors.Is(err, net.ErrClosed) {
		return err // a link this shard lost itself: its peers report it
	}
	select {
	case <-r.gone:
		return nil // the coordinator ended the run first: teardown
	default:
	}
	r.rec.Record(flightrec.KindError, se.LastFrame, r.steps, se.Shard, 0, se.Error())
	r.body = appendAbort(r.body[:0], se)
	if err := r.send(frameAbort); err != nil {
		return err
	}
	<-r.gone
	return err
}

// rounds connects the peers and runs Init and the rounds. Round 0
// exchanges Init's sends and halted counts; every later round delivers
// first and steps at once unless this shard's counts may make it quiet.
// After each round's exchange the skip rule may jump every shard to the
// same later round (skipTarget); REPORT, if any, names it.
func (r *shardRuntime) rounds(ln net.Listener) error {
	if err := r.connect(ln); err != nil {
		return err
	}
	r.s.Init()
	r.stepHead(0, faults.Counts{})
	r.body = r.body[:0]
	if r.ws.Probe {
		r.body = appendStepHead(r.body, &r.reply)
	}
	if err := r.send(frameInitAck); err != nil {
		return err
	}
	n, halted, quiet := r.inst.Graph.N(), 0, false
	for round := 0; round == 0 || r.steps < r.inst.MaxRounds && halted < n; round = r.steps + 1 {
		t0, held := time.Now(), false
		var err error
		if round == 0 {
			err = r.sendStep(frameRound, 0, true)
		} else {
			r.delivered, r.pending = r.s.Deliver(), r.s.PendingDelayed()
			if held = r.inst.Quiet && congest.QuietRound(r.steps, r.delivered, r.pending, r.inst.Faults); held {
				err = r.sendStep(frameRound, round, false)
			} else {
				err = r.step(frameRound, round)
			}
		}
		stepped := false
		for _, l := range r.links {
			if err == nil && l != nil {
				err = r.recv(l, frameRound, round)
				stepped = stepped || l.stepped == 1
			}
		}
		if err == nil && held {
			if quiet = !stepped; quiet {
				break
			}
			err = r.step(frameSends, round)
		}
		halted = r.reply.halted
		for _, l := range r.links {
			if err == nil && l != nil && l.stepped == 0 {
				err = r.recv(l, frameSends, round) // the step a peer held back
			}
			if l != nil {
				halted += l.halted
			}
		}
		if err != nil {
			return err
		}
		if round == 0 {
			continue
		}
		if r.ws.Timeline {
			st := &r.stats[len(r.stats)-1]
			st.waitNS, st.wallNS, r.waitNS = r.waitNS, time.Since(t0).Nanoseconds(), 0
		}
		to := r.skipTarget(round)
		r.s.SkipTo(to)
		r.steps = to
		if r.ws.Probe || r.ws.Shards == 1 {
			if err := r.report(round, to); err != nil {
				return err
			}
		}
	}
	return r.finish(!quiet && halted < n)
}

// skipTarget applies the skip rule (congest.SkipTarget) to the counts and
// wakes of every shard's frames of the round: the round to jump to, or the
// round itself. Quiet-terminating workloads never skip: their quiet rule
// must see every empty round.
func (r *shardRuntime) skipTarget(round int) int {
	if r.inst.Quiet {
		return round
	}
	delivered, pending, slept, wake := r.delivered, r.pending, r.slept, r.wake
	for _, l := range r.links {
		if l != nil {
			delivered, pending = delivered+l.delivered, pending+l.pending
			slept, wake = min(slept, l.slept), min(wake, l.wake)
		}
	}
	return congest.SkipTarget(round, delivered, pending, slept, wake, r.inst.MaxRounds)
}

// connect opens the peer mesh: this shard dials every lower index with a
// PEER hello (version, index, run token) and accepts every higher one,
// refusing any other dialer; then the listener closes and writers start.
func (r *shardRuntime) connect(ln net.Listener) error {
	deadline := time.Now().Add(time.Duration(r.ws.Timeout))
	fail := func(peer int, what string, err error) error {
		return &shardError{Shard: peer, What: what, Phase: "init", LastFrame: "none", err: err}
	}
	open := func(conn net.Conn) *frameConn {
		if peerConnHook != nil {
			conn = peerConnHook(r.shard, conn)
		}
		r.closeWhenGone(conn) // a refused dialer's too: the refusal is what the run reports
		return newFrameConn(conn, r.peerTally)
	}
	for j := 0; j < r.shard; j++ {
		conn, err := net.DialTimeout("tcp", r.ws.Peers[j], time.Until(deadline))
		if err != nil {
			return fail(j, "dial", err)
		}
		r.links[j] = newPeerLink(j, open(conn))
		frame, _ := endFrame(appendHello(beginFrame(nil), r.shard, r.ws.Token), framePeer)
		r.peerTally.sent(frame)
		if _, err := r.links[j].fc.conn.Write(frame); err != nil {
			return fail(j, "write", err)
		}
	}
	ln.(*net.TCPListener).SetDeadline(deadline)
	for j := r.shard + 1; j < len(r.links); j++ {
		conn, err := ln.Accept()
		if err != nil {
			return fail(j, "accept", err) // the first peer not yet in is the one waited on
		}
		fc := open(conn)
		fc.conn.SetReadDeadline(deadline)
		typ, body, err := fc.read()
		peer, token := -1, uint64(0)
		if err == nil && typ != framePeer {
			err = fmt.Errorf("frame type %d, want PEER", typ)
		}
		if err == nil {
			peer, token, err = parseHello(body)
		}
		if err == nil && (token != r.ws.Token || peer <= r.shard || peer >= len(r.links) || r.links[peer] != nil) {
			err = fmt.Errorf("peer index %d (bad, or taken) or run token %#x (not this run's)", peer, token)
		}
		if err != nil {
			return fail(r.shard, "peer handshake", fmt.Errorf("refused %s: %w", conn.RemoteAddr(), err))
		}
		r.links[peer] = newPeerLink(peer, fc)
	}
	ln.Close()
	for _, l := range r.links {
		if l != nil {
			r.writers.Add(1)
			go func() {
				defer r.writers.Done()
				for frame := range l.out {
					l.fc.conn.Write(frame) // a failed write shows in the next read
					l.free <- frame
				}
			}()
		}
	}
	return nil
}

// step runs this shard's step and sends it to the peers in frames of type
// typ. An induced death or stall fires first.
func (r *shardRuntime) step(typ byte, round int) error {
	r.steps++
	if r.cfg.FailAtRound > 0 && r.steps >= r.cfg.FailAtRound {
		r.rec.Record(flightrec.KindError, "", r.steps, -1, 0, "induced shard death")
		r.stopWriters() // what it sent before it died arrives
		return errShardStopped
	}
	if r.cfg.StallAtRound > 0 && r.steps >= r.cfg.StallAtRound {
		<-r.gone // every connection held open until the coordinator ends the run
		r.rec.Record(flightrec.KindError, "", r.steps, -1, 0, "induced shard stall")
		return errShardStopped
	}
	active, wake := r.s.Step()
	r.slept, r.wake = r.wake, wake
	fc := r.s.FaultCounts() // drained where the engines drain: a quiet exit's deliver phase counts for nothing
	r.stepHead(active, fc)
	if r.ws.Timeline {
		r.stats = append(r.stats, roundStat{round: int64(round), delivered: int64(r.delivered), faults: fc, active: int64(active)})
	}
	return r.sendStep(typ, round, true)
}

// report sends the coordinator the REPORT of a round (absorbReport reads
// it): the round, how many rounds the skip rule jumped after it (to, the
// round it jumped to, less the round) and, for a probe, the delivered
// total, the inbox profile and the step head.
func (r *shardRuntime) report(round, to int) error {
	r.body = binary.AppendUvarint(r.body[:0], uint64(round))
	r.body = binary.AppendUvarint(r.body, uint64(to-round))
	if r.ws.Probe {
		r.body = binary.AppendUvarint(r.body, uint64(r.delivered))
		for u := r.lo; u < r.hi; u++ {
			inbox := r.s.Inbox(u)
			r.body = binary.AppendUvarint(r.body, uint64(len(inbox)))
			for _, in := range inbox {
				r.body = binary.AppendUvarint(r.body, uint64(in.Port))
			}
		}
		r.body = appendStepHead(r.body, &r.reply)
	}
	return r.send(frameReport)
}

// stepHead fills r.reply from Init or the step just run: the counts, the
// cumulative halt count and, for a probe, the owned events in canonical
// order (drained either way).
func (r *shardRuntime) stepHead(active int, fc faults.Counts) {
	r.reply.active, r.reply.faults, r.reply.halted = active, fc, r.s.HaltedCount()
	r.reply.events = r.reply.events[:0]
	add := func(e wireEvent) {
		if r.ws.Probe {
			r.reply.events = append(r.reply.events, e)
		}
	}
	r.s.DrainEvents(func(node, round int, name string) { add(wireEvent{node: node, round: round, name: name}) },
		func(node, round int) { add(wireEvent{halt: true, node: node, round: round}) })
}

// sendStep sends every peer its frame of the round: a ROUND (round,
// delivered, pending, stepped flag) or a SENDS (round), then, if stepped,
// the halted count, the wake (as rounds slept past the next one: 0 when a
// node wakes there) and the sends bound for that peer, taken off the
// pair's crossing list and encoded once, straight into that peer's frame.
func (r *shardRuntime) sendStep(typ byte, round int, stepped bool) error {
	for _, l := range r.links {
		if l == nil {
			continue
		}
		buf := binary.AppendUvarint(beginFrame(<-l.free), uint64(round))
		if typ == frameRound {
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(r.delivered)), uint64(r.pending))
			buf = append(buf, flag(stepped))
		}
		var err error
		if stepped {
			buf = binary.AppendUvarint(buf, uint64(r.reply.halted))
			buf = binary.AppendUvarint(buf, uint64(max(r.wake-round-1, 0)))
			buf, err = appendSends(buf, r.s.Outbound(l.peer), r.wl.Layouts)
		}
		var frame []byte
		if err == nil {
			frame, err = endFrame(buf, typ)
		}
		if err != nil {
			return fmt.Errorf("transport: shard %d: encoding frame: %w", r.shard, err)
		}
		r.peerTally.sent(frame)
		r.rec.Record(flightrec.KindFrameSent, frameName(typ), round, l.peer, len(frame), "")
		l.out <- frame
	}
	return nil
}

// recv reads peer l's frame of the given type and round, under the
// timeout, and takes it; a failure is the peer's.
func (r *shardRuntime) recv(l *peerLink, typ byte, round int) error {
	l.fc.conn.SetReadDeadline(time.Now().Add(time.Duration(r.ws.Timeout)))
	t0 := time.Now()
	got, body, err := l.fc.read()
	r.waitNS += time.Since(t0).Nanoseconds()
	what := "read"
	if err == nil && got != typ {
		err = fmt.Errorf("frame type %s, want %s", frameName(got), frameName(typ))
	}
	if err == nil {
		l.lastType, what = got, "reply"
		r.rec.Record(flightrec.KindFrameRecv, frameName(got), round, l.peer, len(body), "")
		err = r.take(l, typ, round, body)
	}
	if err != nil {
		return &shardError{Shard: l.peer, What: what, Phase: "peer-wait", LastRound: l.lastRound, LastFrame: frameName(l.lastType), err: err}
	}
	return nil
}

// take checks peer l's frame and applies it: a ROUND's round, counts and
// stepped flag (set exactly when the counts rule out a quiet round), then a
// step's halted count, wake and sends, each staged on the pair's crossing
// list once it is checked — an index inside the list, past the last send's,
// and a payload the workload decodes. A step its own counts and last wake
// make a no-op may neither halt nor send.
func (r *shardRuntime) take(l *peerLink, typ byte, round int, body []byte) error {
	cur := cursor{b: body}
	if got := cur.int("peer round"); cur.err == nil && got != round {
		return fmt.Errorf("%s of round %d in round %d", frameName(typ), got, round)
	}
	l.stepped = 1
	if typ == frameRound {
		l.delivered, l.pending = cur.int("peer delivered"), cur.int("peer pending")
		if l.stepped = int(cur.byte("peer stepped flag")); cur.err == nil && l.stepped > 1 {
			cur.fail("peer stepped flag")
		}
		if cur.err != nil {
			return cur.err
		}
		switch may := r.inst.Quiet && congest.QuietRound(round-1, l.delivered, l.pending, r.inst.Faults); {
		case may && l.stepped == 1:
			return fmt.Errorf("stepped in round %d, which delivered %d with %d delayed pending and may be quiet", round, l.delivered, l.pending)
		case !may && l.stepped == 0:
			return fmt.Errorf("held its step in round %d, which delivered %d with %d delayed pending and cannot be quiet", round, l.delivered, l.pending)
		case l.stepped == 0:
			return cur.done("peer frame")
		}
	}
	plo, phi := r.split.Bounds(l.peer)
	halted, sleeps := cur.int("peer halted"), cur.int("peer wake")
	if cur.err == nil && halted > phi-plo {
		return fmt.Errorf("halted %d of %d owned nodes", halted, phi-plo)
	}
	sends := cur.length("send count")
	if noop := l.delivered == 0 && l.pending == 0 && l.wake > round; cur.err == nil && noop && (halted != l.halted || sends > 0) {
		return fmt.Errorf("slept through round %d with nothing delivered, yet halted %d nodes (%d before) and sent %d", round, halted, l.halted, sends)
	}
	l.halted, l.slept, l.wake = halted, l.wake, math.MaxInt
	if sleeps < math.MaxInt-round-1 {
		l.wake = round + 1 + sleeps
	}
	if err := cur.stage(r.s.Inbound(l.peer), sends, r.wl.Layouts); err != nil {
		return err
	}
	if err := cur.done("peer frame"); err != nil {
		return err
	}
	l.lastRound = round
	return nil
}

// finish ends the run: FINAL (rounds run, whether the limit ended them,
// the owned message count and records, the executed rounds' timings), then,
// once the peer writers are done, TELEMETRY: the tallies of the coordinator
// link (but for TELEMETRY itself) and of the peer links, the fault totals
// and, when SPEC asks (an -obsout run), the flight dump.
func (r *shardRuntime) finish(limit bool) error {
	r.body = binary.AppendUvarint(r.body[:0], uint64(r.steps))
	r.body = append(r.body, flag(limit))
	r.body = binary.AppendUvarint(r.body, uint64(r.s.Messages()))
	r.body = appendRecords(r.body, r.inst.harvest(nil, r.lo, r.hi))
	if r.ws.Timeline {
		r.body = binary.AppendUvarint(r.body, uint64(len(r.stats)))
	}
	for _, st := range r.stats {
		for _, v := range st.fields() {
			r.body = binary.AppendUvarint(r.body, uint64(*v))
		}
	}
	if err := r.send(frameFinal); err != nil {
		return err
	}
	r.stopWriters()
	wt := wireTelemetry{WireStats: wireStats("shard", r.shard, r.fc.tally)}
	for _, st := range r.stats {
		wt.NodeSteps += st.active
	}
	if r.ws.FlightDump {
		d := r.rec.Dump(flightrec.ReasonFinish)
		wt.Dump = &d
	}
	if len(r.links) > 1 {
		peers := wireStats("peer", r.shard, r.peerTally)
		wt.Peer = &peers
	}
	if r.inst.Faults != nil {
		wt.Faults = r.inst.Faults.Totals()
	}
	body, err := json.Marshal(wt)
	if err != nil {
		return fmt.Errorf("transport: shard %d: encoding telemetry: %w", r.shard, err)
	}
	r.body = append(r.body[:0], body...)
	return r.send(frameTelemetry)
}

func (r *shardRuntime) send(typ byte) error {
	if err := r.fc.write(typ, r.body); err != nil {
		return fmt.Errorf("transport: shard %d: write: %w", r.shard, err)
	}
	r.rec.Record(flightrec.KindFrameSent, frameName(typ), r.steps, -1, len(r.body), "")
	return nil
}
