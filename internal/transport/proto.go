package transport

// Typed frame payload encodings for the TCP backend: uvarint-packed
// sections of cross-shard sends, probe events, inbox profiles and
// harvest records. All encodings are canonical — one byte form per value,
// in one fixed order, and the cursor refuses any other — which keeps the
// coordinator's probe stream byte-identical to the in-process engines.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
)

// wireSpec is the JSON body of SPEC: the replayable spec, the shard count,
// every shard's peer address, the run token a peer hello must carry, a
// shard's wait on a peer, and whether the coordinator wants a REPORT per
// round (Probe), the round timings in FINAL (Timeline) and the flight dump
// in TELEMETRY (FlightDump, an -obsout run's: nothing else reads it).
type wireSpec struct {
	Version    int      `json:"version"`
	Shards     int      `json:"shards"`
	Peers      []string `json:"peers"`
	Token      uint64   `json:"token"`
	Timeout    int64    `json:"timeout_ns"`
	Probe      bool     `json:"probe,omitempty"`
	Timeline   bool     `json:"timeline,omitempty"`
	FlightDump bool     `json:"flight_dump,omitempty"`
	Spec       Spec     `json:"spec"`
}

// wireTelemetry is the JSON body of TELEMETRY: the shard's coordinator-link
// row (Endpoint "shard", Faults its plan's totals at its owned nodes), its
// peer links' row (Endpoint "peer", absent with one shard), with a
// timeline the Step calls its owned nodes made (congest_node_steps_total)
// and, exactly when SPEC asks, its flight dump.
type wireTelemetry struct {
	WireStats
	Peer      *WireStats      `json:"peer,omitempty"`
	NodeSteps int64           `json:"node_steps,omitempty"`
	Dump      *flightrec.Dump `json:"flightrec,omitempty"`
}

// roundStat is one executed round as one shard saw it: the round, the wall
// time it waited on its peers' frames, the round's wall time, and what it
// delivered and counted of faults. With a timeline they end FINAL, a count
// and eight uvarints each; rounds the skip rule jumped have none. active,
// how many owned nodes stepped, stays at the shard: TELEMETRY carries the
// run's sum (NodeSteps).
type roundStat struct {
	round, waitNS, wallNS, delivered int64
	faults                           faults.Counts
	active                           int64
}

// fields lists the stat's values in their wire order.
func (st *roundStat) fields() [8]*int64 {
	return [8]*int64{&st.round, &st.waitNS, &st.wallNS, &st.delivered, &st.faults.Dropped, &st.faults.Duplicated, &st.faults.Delayed, &st.faults.Crashed}
}

// cursor parses one frame payload; the first error sticks and later reads
// return zero values, so parsers chain reads and check once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: malformed %s", what)
	}
}

// uvarint reads one uvarint in its canonical form (congest.Uvarint).
func (c *cursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := congest.Uvarint(c.b)
	if n == 0 {
		c.fail(what)
		return 0
	}
	c.b = c.b[n:]
	return v
}

// int reads a uvarint that has to fit an int, so no value read off a
// frame is negative and range checks need an upper bound only.
func (c *cursor) int(what string) int {
	v := c.uvarint(what)
	if v > math.MaxInt {
		c.fail(what)
		return 0
	}
	return int(v)
}

// length reads a uvarint that sizes a read of bytes, or of items of one
// byte or more, bounded by the bytes remaining: no huge allocation.
func (c *cursor) length(what string) int {
	v := c.uvarint(what)
	if c.err == nil && v > uint64(len(c.b)) {
		c.fail(what + " length")
		return 0
	}
	return int(v)
}

func (c *cursor) bytes(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.fail(what)
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

func (c *cursor) byte(what string) byte {
	if b := c.bytes(1, what); b != nil {
		return b[0]
	}
	return 0
}

// done returns the sticky error, or complains about trailing garbage.
func (c *cursor) done(what string) error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after %s", len(c.b), what)
	}
	return nil
}

// wireEvent is one probe event (phase mark or node halt) in canonical
// emission order: per node in ID order, marks first, then the halt.
type wireEvent struct {
	halt  bool
	node  int
	round int
	name  string // marks only
}

// The relay codec, the tail of a stepped ROUND and of a SENDS frame: the
// sends bound for the frame's peer, as their count and, per send, the gap
// since the previous send's index in the pair's crossing list
// (congest.Crossing; the first send's gap is its index) and its payload in
// the workload's layout codec, which delimits itself. Both ends build the
// list from the replica graph and the Split, so an index names the same
// outbox slot on both, and a frame maps to one set of (slot, record) pairs.

// appendSends takes every send queued on the crossing list c, in list
// order, and appends the section that carries them.
func appendSends(buf []byte, c congest.Crossing, layouts []congest.Layout) ([]byte, error) {
	at, sends, next := len(buf), 0, 0
	buf = append(buf, 0)
	for k := range c.Len() {
		m := c.Take(k)
		if m.Kind == 0 {
			continue
		}
		var err error
		if buf, err = congest.Append(binary.AppendUvarint(buf, uint64(k-next)), layouts, m); err != nil {
			return nil, err
		}
		sends, next = sends+1, k+1
	}
	return fillUvarint(buf, at, uint64(sends)), nil
}

// stage reads the sends of a section whose count was read and stages each
// on the crossing list c: a gap that keeps the index inside the list (the
// index rises strictly, so no slot is named twice) and a payload the
// layouts decode.
func (cur *cursor) stage(c congest.Crossing, sends int, layouts []congest.Layout) error {
	for next := 0; sends > 0; sends-- {
		var gap uint64
		if len(cur.b) > 0 && cur.b[0] < 0x80 {
			gap, cur.b = uint64(cur.b[0]), cur.b[1:] // the one-byte form, without a call
		} else if gap = cur.uvarint("send gap"); cur.err != nil {
			return cur.err
		}
		if gap >= uint64(c.Len()-next) {
			return fmt.Errorf("send gap %d names no crossing port: %d of %d follow the last send", gap, c.Len()-next, c.Len())
		}
		m, n, err := congest.ParsePrefix(cur.b, layouts)
		if err != nil {
			return fmt.Errorf("decoding payload: %w", err)
		}
		k := next + int(gap)
		if err := c.Stage(k, m); err != nil {
			return err
		}
		cur.b, next = cur.b[n:], k+1
	}
	return cur.err
}

// fillUvarint writes v as a uvarint at buf[at], a byte held for it, and
// slides what follows to the right when the form needs more than that
// byte — counts and lengths are written once what they count is encoded.
func fillUvarint(buf []byte, at int, v uint64) []byte {
	var form [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(form[:], v)
	if k > 1 {
		buf = append(buf, form[1:k]...) // room only: the copy overwrites it
		copy(buf[at+k:], buf[at+1:len(buf)-(k-1)])
	}
	copy(buf[at:], form[:k])
	return buf
}

// stepReply is a step head: what one shard reports of Init or one Step
// — the body of a probed INITACK and the tail of a REPORT, events in
// canonical order. The fault counts ride the step, not the delivery,
// because the engines drain them only for rounds that step.
type stepReply struct {
	active int // nodes that executed Step (0 for Init)
	halted int // owned nodes halted, cumulative
	faults faults.Counts
	events []wireEvent
}

func appendStepHead(buf []byte, r *stepReply) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.active))
	buf = binary.AppendUvarint(buf, uint64(r.halted))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Dropped))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Duplicated))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Delayed))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Crashed))
	buf = binary.AppendUvarint(buf, uint64(len(r.events)))
	for _, e := range r.events {
		buf = append(buf, flag(e.halt)) // 0 a mark, 1 a halt
		buf = binary.AppendUvarint(buf, uint64(e.node))
		buf = binary.AppendUvarint(buf, uint64(e.round))
		if !e.halt {
			buf = binary.AppendUvarint(buf, uint64(len(e.name)))
			buf = append(buf, e.name...)
		}
	}
	return buf
}

func (c *cursor) stepHead(r *stepReply) {
	r.active = c.int("step active")
	r.halted = c.int("step halted")
	r.faults.Dropped = int64(c.int("step dropped"))
	r.faults.Duplicated = int64(c.int("step duplicated"))
	r.faults.Delayed = int64(c.int("step delayed"))
	r.faults.Crashed = int64(c.int("step crashed"))
	r.events = r.events[:0]
	for n := c.int("event count"); n > 0 && c.err == nil; n-- {
		kind := c.byte("event kind")
		e := wireEvent{halt: kind == 1, node: c.int("event node"), round: c.int("event round")}
		if kind > 1 {
			c.fail("event kind")
		} else if !e.halt {
			e.name = string(c.bytes(c.length("event name"), "event name"))
		}
		r.events = append(r.events, e)
	}
}

// flag is a boolean's wire byte.
func flag(b bool) (f byte) {
	if b {
		f = 1
	}
	return f
}

// The record codec, the one wire form of what a workload harvests
// (Instance.Harvest): per node in ID order a count, read as a length, and
// that many uvarints. It ends a FINAL frame.
func appendRecords(buf []byte, perNode [][]uint64) []byte {
	for _, rec := range perNode {
		buf = binary.AppendUvarint(buf, uint64(len(rec)))
		for _, w := range rec {
			buf = binary.AppendUvarint(buf, w)
		}
	}
	return buf
}

// records parses the records of `owned` nodes onto dst.
func (c *cursor) records(dst [][]uint64, owned int) [][]uint64 {
	for u := 0; u < owned && c.err == nil; u++ {
		var rec []uint64
		if count := c.length("record"); count > 0 {
			rec = make([]uint64, count)
			for j := range rec {
				rec[j] = c.uvarint("record word")
			}
		}
		dst = append(dst, rec)
	}
	return dst
}

// parseHello parses a HELLO or PEER body: version byte, shard index, and
// the shard's peer port (HELLO) or the run token (PEER).
func parseHello(b []byte) (shard int, word uint64, err error) {
	c := cursor{b: b}
	if v := c.byte("hello version"); c.err == nil && v != wireVersion {
		return 0, 0, fmt.Errorf("transport: protocol version mismatch: peer %d, this build %d", v, wireVersion)
	}
	shard, word = c.int("hello shard"), c.uvarint("hello word")
	return shard, word, c.done("hello")
}

func appendHello(buf []byte, shard int, word uint64) []byte {
	buf = append(buf, wireVersion)
	buf = binary.AppendUvarint(buf, uint64(shard))
	return binary.AppendUvarint(buf, word)
}

// shardError attributes a failure to one shard — what failed, the phase,
// its last completed round and last frame — as the coordinator, or a shard
// on a peer link, saw it; the latter sends it as JSON in an ABORT. It wraps
// the cause, so errors.As still finds a stall's deadline.
type shardError struct {
	Shard     int    `json:"shard"`
	What      string `json:"what"` // "read", "write", "dial", "accept", "peer handshake"; "reply" when the frame arrived and its check rejected it
	Phase     string `json:"phase"`
	LastRound int    `json:"last_round"`
	LastFrame string `json:"last_frame"`
	Cause     string `json:"cause"`
	TimedOut  bool   `json:"timeout,omitempty"`
	err       error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("transport: shard %d: %s: %v (phase %s, last completed round %d, last frame %s)",
		e.Shard, e.What, e.err, e.Phase, e.LastRound, e.LastFrame)
}

func (e *shardError) Unwrap() error { return e.err }

func appendAbort(buf []byte, e *shardError) []byte {
	var nerr net.Error
	e.Cause, e.TimedOut = e.err.Error(), errors.As(e.err, &nerr) && nerr.Timeout()
	b, _ := json.Marshal(e)
	return append(buf, b...)
}

// reported is the cause an ABORT carries: a net.Error whose Timeout says
// whether the reporter's wait ran out, so a stall reads as a deadline on
// both sides of the wire.
type reported struct{ e *shardError }

func (r reported) Error() string   { return r.e.Cause }
func (r reported) Timeout() bool   { return r.e.TimedOut }
func (r reported) Temporary() bool { return false }

// errShardStopped is returned by a shard runtime asked to exit by a
// test hook; exported via errors.Is only within the package tests.
var errShardStopped = errors.New("transport: shard stopped by test hook")
