package transport

// The shard side of the TCP backend: dial the coordinator with backoff,
// replay the spec into a congest.Shard over part i of congest.Split,
// then answer barrier frames until the coordinator says FINISH (or
// closes the connection). A DELIVER is answered with the delivery and,
// unless the round may be quiet from this shard's counts, the step too;
// STEP comes only after a DELIVERED that held the step back. cmd/tcpnode
// is a thin wrapper around DialShard + ServeShard; tests drive ServeShard
// directly on in-process connections to put the whole protocol under the
// race detector.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
)

// ShardConfig tunes a shard runtime beyond what the wire spec carries.
type ShardConfig struct {
	// FailAtRound > 0 makes the runtime drop its connection without
	// replying just before it steps that round (1-based), whichever frame
	// asked for the step (DELIVER, or the STEP fallback) — the fault
	// injection behind the coordinator's shard-death-mid-round tests. 0
	// disables.
	FailAtRound int
	// StallAtRound > 0 makes the runtime stop replying (without closing
	// the connection) at the same point of that round, so the
	// coordinator's read deadline — not a connection error — has to
	// surface the failure.
	StallAtRound int
	// Recorder is the shard's flight recorder. cmd/tcpnode passes one it
	// also dumps on panic/SIGTERM; when nil, ServeShard creates one, so
	// every shard records either way and its dump ships back in the
	// TELEMETRY frame.
	Recorder *flightrec.Recorder
}

// DialShard connects to the coordinator, retrying with doubling backoff
// (10ms up to 500ms per wait) until the budget runs out — the
// coordinator may still be between Listen and Accept, or the OS still
// scheduling sibling processes, when a shard starts dialing.
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

// ServeShard runs one shard endpoint over an established connection:
// handshake, spec replay, then the barrier loop. It returns nil on a
// graceful end (FINISH answered, or the coordinator closed the
// connection at a frame boundary before FINISH — how error-path
// teardown looks from the shard side).
func ServeShard(conn net.Conn, shard int, cfg ShardConfig) error {
	defer conn.Close()
	fc := newFrameConn(conn)
	if err := fc.write(frameHello, appendHello(nil, shard)); err != nil {
		return err
	}
	if err := fc.flush(); err != nil {
		return err
	}
	typ, body, err := fc.read()
	if err != nil {
		return fmt.Errorf("transport: shard %d: reading spec: %w", shard, err)
	}
	if typ != frameSpec {
		return fmt.Errorf("transport: shard %d: frame type %d, want SPEC", shard, typ)
	}
	var ws wireSpec
	if err := json.Unmarshal(body, &ws); err != nil {
		return fmt.Errorf("transport: shard %d: decoding spec: %w", shard, err)
	}
	if ws.Version != wireVersion {
		return fmt.Errorf("transport: shard %d: protocol version mismatch: coordinator %d, this build %d", shard, ws.Version, wireVersion)
	}
	if shard < 0 || ws.Shards < 1 || shard >= ws.Shards {
		return fmt.Errorf("transport: shard index %d outside layout of %d shards", shard, ws.Shards)
	}
	wl, inst, err := buildInstance(ws.Spec)
	if err != nil {
		return err
	}
	lo, hi := congest.Split{N: inst.Graph.N(), K: ws.Shards}.Bounds(shard)
	net := congest.NewNetwork(inst.Graph, inst.Programs, inst.Source)
	if inst.Faults != nil {
		// The replica's plan is rebuilt from the spec, identical on every
		// process: it replays crash/sever schedules and rolls the fates of
		// the messages this shard receives.
		net.SetFaults(inst.Faults)
	}
	s, err := congest.NewShard(net, lo, hi)
	if err != nil {
		return err
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = flightrec.New("shard", shard, flightrec.DefaultCapacity)
	}
	r := &shardRuntime{fc: fc, shard: shard, s: s, wl: wl, inst: inst, cfg: cfg, rec: rec, profile: ws.Probe}
	return r.loop()
}

// shardRuntime is the per-run state of one ServeShard call. Reply
// scratch buffers are reused across rounds so a steady round allocates
// only what payload encoding forces.
type shardRuntime struct {
	fc    *frameConn
	shard int
	s     *congest.Shard
	wl    Workload
	inst  *Instance
	cfg   ShardConfig
	rec   *flightrec.Recorder
	// profile: the coordinator has a probe, so DELIVERED carries the inbox
	// profile its round records are rebuilt from.
	profile bool

	steps    int  // rounds stepped
	owesStep bool // the last DELIVERED held the step back: STEP may follow
	reply    stepReply
	body     []byte
}

func (r *shardRuntime) loop() error {
	for {
		typ, body, err := r.fc.read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Coordinator closed at a frame boundary: teardown.
				return nil
			}
			r.rec.Record(flightrec.KindError, "", r.steps, -1, 0, err.Error())
			return fmt.Errorf("transport: shard %d: read: %w", r.shard, err)
		}
		r.rec.Record(flightrec.KindFrameRecv, frameName(typ), r.steps, -1, len(body), "")
		switch typ {
		case frameInit:
			r.s.Init()
			r.body = r.body[:0]
			if err = r.appendStep(0, faults.Counts{}); err == nil {
				err = r.send(frameInitAck)
			}
		case frameDeliver:
			err = r.deliver(body)
		case frameStep:
			// The fallback of a round this shard's counts let look quiet.
			if !r.owesStep {
				return fmt.Errorf("transport: shard %d: STEP with no step held back (%d rounds stepped)", r.shard, r.steps)
			}
			r.owesStep = false
			r.body = r.body[:0]
			if err = r.step(typ); err == nil {
				err = r.send(frameStepped)
			}
		case frameFinish:
			if err := r.finish(); err != nil {
				return err
			}
			return nil
		default:
			return fmt.Errorf("transport: shard %d: unexpected frame type %d", r.shard, typ)
		}
		if err != nil {
			return err
		}
	}
}

// step runs this shard's step of the next round and appends its step
// section to r.body; carrier is the frame that asked for it. The induced
// death and stall fire first, so they hit round R's step whichever frame
// carries it.
func (r *shardRuntime) step(carrier byte) error {
	r.steps++
	if r.cfg.FailAtRound > 0 && r.steps >= r.cfg.FailAtRound {
		r.rec.Record(flightrec.KindError, frameName(carrier), r.steps, -1, 0, "induced shard death")
		return errShardStopped
	}
	if r.cfg.StallAtRound > 0 && r.steps >= r.cfg.StallAtRound {
		// Hold the connection open and never reply: the read returns
		// only once the coordinator has given up and closed its end,
		// so a goroutine-mode shard ends with the run.
		io.Copy(io.Discard, r.fc.conn)
		r.rec.Record(flightrec.KindError, frameName(carrier), r.steps, -1, 0, "induced shard stall")
		return errShardStopped
	}
	active := r.s.Step()
	// FaultCounts drains the round just stepped — the same point the
	// in-process engines drain, so counts for a deliver phase aborted by
	// a quiet exit are discarded identically.
	return r.appendStep(active, r.s.FaultCounts())
}

// appendStep appends the step section of Init or of the step just run to
// r.body: report the cumulative halt count and the round's drained fault
// counts, drain owned events in canonical order, and encode the owned
// sends that leave the shard.
func (r *shardRuntime) appendStep(active int, fc faults.Counts) error {
	r.reply.active = active
	r.reply.faults = fc
	r.reply.halted = r.s.HaltedCount()
	r.reply.events = r.reply.events[:0]
	r.s.DrainEvents(
		func(node, round int, name string) {
			r.reply.events = append(r.reply.events, wireEvent{node: node, round: round, name: name})
		},
		func(node, round int) {
			r.reply.events = append(r.reply.events, wireEvent{halt: true, node: node, round: round})
		},
	)
	r.body = appendStepHead(r.body, &r.reply)
	// Each send is encoded once, in place: the count and every payload
	// length are filled in behind what they count.
	countAt, sends := len(r.body), 0
	r.body = append(r.body, 0)
	var encErr error
	r.s.ExternalSends(func(dst, dstPort int, payload congest.Message) {
		if encErr != nil {
			return
		}
		body, lenAt := appendSendHead(r.body, dst, dstPort)
		if body, encErr = r.wl.Encode(body, payload); encErr != nil {
			return
		}
		r.body = fillUvarint(body, lenAt, uint64(len(body)-lenAt-1))
		sends++
	})
	if encErr != nil {
		return fmt.Errorf("transport: shard %d: encoding send: %w", r.shard, encErr)
	}
	r.body = fillUvarint(r.body, countAt, uint64(sends))
	return nil
}

// deliver answers DELIVER: decode and inject the relayed batch as it is
// parsed, run the canonical delivery scan, report the per-node inbox
// profile if the coordinator has a probe, and step at once unless this
// shard's counts pass the quiet rule — then the round may end here, and
// the coordinator sends STEP if it does not.
func (r *shardRuntime) deliver(body []byte) error {
	if r.owesStep {
		return fmt.Errorf("transport: shard %d: DELIVER while round %d's step is held back", r.shard, r.steps+1)
	}
	c := cursor{b: body}
	for n := c.length("send count"); n > 0 && c.err == nil; n-- {
		dst, port, payload := c.send()
		if c.err != nil {
			break
		}
		m, err := r.wl.Decode(payload)
		if err != nil {
			return fmt.Errorf("transport: shard %d: decoding relayed payload: %w", r.shard, err)
		}
		if err := r.s.Inject(dst, port, m); err != nil {
			return fmt.Errorf("transport: shard %d: staging relayed payload: %w", r.shard, err)
		}
	}
	if err := c.done("deliver batch"); err != nil {
		return fmt.Errorf("transport: shard %d: %w", r.shard, err)
	}
	// The DELIVERED body (absorbDelivered reads it): the round, delivered
	// and pending totals, per owned node its inbox size and arrival ports
	// when the coordinator has a probe, then the stepped flag and, when
	// set, the step section.
	delivered, pending := r.s.Deliver(), r.s.PendingDelayed()
	r.body = binary.AppendUvarint(r.body[:0], uint64(r.steps+1))
	r.body = binary.AppendUvarint(r.body, uint64(delivered))
	r.body = binary.AppendUvarint(r.body, uint64(pending))
	if r.profile {
		lo, hi := r.s.Nodes()
		for u := lo; u < hi; u++ {
			inbox := r.s.Inbox(u)
			r.body = binary.AppendUvarint(r.body, uint64(len(inbox)))
			for _, in := range inbox {
				r.body = binary.AppendUvarint(r.body, uint64(in.Port))
			}
		}
	}
	if r.inst.quietRound(r.steps, delivered, pending) {
		r.owesStep = true
		r.body = append(r.body, 0)
	} else {
		r.body = append(r.body, 1)
		if err := r.step(frameDeliver); err != nil {
			return err
		}
	}
	return r.send(frameDelivered)
}

// finish answers FINISH with the owned message count and the owned
// nodes' harvest records, then ships the shard's wire telemetry — its
// side of the frame/byte tallies plus its flight-recorder dump — in a
// final TELEMETRY frame, so the coordinator's registry and -obsout file
// cover both ends of the connection. The tallies are snapshotted after FINAL is flushed
// and therefore count every protocol frame except TELEMETRY itself.
func (r *shardRuntime) finish() error {
	lo, hi := r.s.Nodes()
	r.body = binary.AppendUvarint(r.body[:0], uint64(r.s.Messages()))
	r.body = appendRecords(r.body, r.inst.harvest(nil, lo, hi))
	if err := r.send(frameFinal); err != nil {
		return err
	}
	wt := wireTelemetry{
		WireStats: wireStats("shard", r.shard, &r.fc.tally),
		Dump:      r.rec.Dump(flightrec.ReasonFinish),
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
	if err := r.fc.flush(); err != nil {
		return fmt.Errorf("transport: shard %d: flush: %w", r.shard, err)
	}
	r.rec.Record(flightrec.KindFrameSent, frameName(typ), r.steps, -1, len(r.body), "")
	return nil
}
