package transport

// Typed frame payload encodings for the TCP backend: uvarint-packed
// batches of relayed messages, probe events, inbox profiles and harvest
// records. All encodings are canonical (one byte form per value, written
// in one fixed order, and the cursor refuses any other form), which makes
// the coordinator's probe stream — and hence exported traces —
// byte-identical to the in-process engines, and lets the coordinator relay
// the sends it has checked without re-encoding them.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
)

// wireSpec is the JSON body of the SPEC frame: the replayable workload
// spec plus the shard count; congest.Split turns the count into the
// layout on both sides. Probe says whether the coordinator has a probe
// attached, which is when DELIVERED carries the inbox profile its round
// records are rebuilt from.
type wireSpec struct {
	Version int  `json:"version"`
	Shards  int  `json:"shards"`
	Probe   bool `json:"probe,omitempty"`
	Spec    Spec `json:"spec"`
}

// wireTelemetry is the JSON body of the TELEMETRY frame every shard
// sends after FINAL: its side of the wire tallies (a WireStats row with
// Endpoint "shard", whose Faults are the replica plan's accumulated
// totals — events applied at this shard's owned receivers plus its owned
// crash node-rounds, so the per-shard values sum to the run totals) plus
// its flight-recorder dump, so one -obsout file on the coordinator
// merges both ends of every connection.
type wireTelemetry struct {
	WireStats
	Dump flightrec.Dump `json:"flightrec"`
}

// cursor is a parsing cursor over one frame payload; the first error
// sticks and every later read returns zero values, so parse functions
// can chain reads and check once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: malformed %s", what)
	}
}

// uvarint reads one uvarint in its canonical form: binary.Uvarint also
// reads overlong forms (81 80 00 is 1), whose last byte is a zero after
// at least one other.
func (c *cursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.fail(what)
		return 0
	}
	c.b = c.b[n:]
	return v
}

// int reads a uvarint that has to fit an int — every count, node, port
// and round on the wire — so no value read off a frame is ever negative
// and range checks need an upper bound only.
func (c *cursor) int(what string) int {
	v := c.uvarint(what)
	if v > math.MaxInt {
		c.fail(what)
		return 0
	}
	return int(v)
}

// length reads a uvarint that sizes a subsequent read — of bytes, or of
// items at least one byte each; it additionally bounds it by the bytes
// actually remaining, so a hostile length cannot drive a huge
// allocation.
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
	b := c.bytes(1, what)
	if c.err != nil {
		return 0
	}
	return b[0]
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

const (
	eventMark byte = iota
	eventHalt
)

func appendEvents(buf []byte, evs []wireEvent) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, e := range evs {
		kind := eventMark
		if e.halt {
			kind = eventHalt
		}
		buf = append(buf, kind)
		buf = binary.AppendUvarint(buf, uint64(e.node))
		buf = binary.AppendUvarint(buf, uint64(e.round))
		if !e.halt {
			buf = binary.AppendUvarint(buf, uint64(len(e.name)))
			buf = append(buf, e.name...)
		}
	}
	return buf
}

func (c *cursor) events(dst []wireEvent) []wireEvent {
	n := c.int("event count")
	for i := 0; i < n && c.err == nil; i++ {
		kind := c.byte("event kind")
		e := wireEvent{
			halt:  kind == eventHalt,
			node:  c.int("event node"),
			round: c.int("event round"),
		}
		if kind == eventMark {
			e.name = string(c.bytes(c.length("event name"), "event name"))
		} else if kind != eventHalt {
			c.fail("event kind")
		}
		dst = append(dst, e)
	}
	return dst
}

// The relay codec: a batch of relayed cross-shard messages is a count and
// then that many sends, each the receiving node, the port AT THE
// RECEIVER, the payload length and the workload-encoded payload. It is the
// tail of a step section and the whole body of a DELIVER frame: the
// coordinator checks the sends of a step section one by one and copies
// them into the DELIVER bodies as they are, in runs.

// send reads one relayed send. The payload aliases the frame buffer: valid
// only until the next frame read, decode before then.
func (c *cursor) send() (dst, port int, payload []byte) {
	dst, port = c.int("send dst"), c.int("send port")
	return dst, port, c.bytes(c.length("send payload"), "send payload")
}

// appendSendHead appends a send's receiving node and port and one byte
// held for its payload length: the payload is appended next, and
// fillUvarint writes its length at the returned offset.
func appendSendHead(buf []byte, dst, port int) ([]byte, int) {
	buf = binary.AppendUvarint(buf, uint64(dst))
	buf = binary.AppendUvarint(buf, uint64(port))
	at := len(buf)
	return append(buf, 0), at
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

// stepReply is a step section: the body of INITACK and STEPPED frames,
// and the tail of a DELIVERED body whose stepped flag is set — what one
// shard reports after running Init or one Step. The fault counts ride the
// step section — not the delivery profile — because the in-process
// engines drain counts only for rounds that actually step: a quiet exit
// discards the aborted deliver phase's counts, and the wire backend must
// agree. The section ends in the relay batch of the shard's outbound
// cross-shard sends.
type stepReply struct {
	active int // nodes that executed Step (0 for INITACK)
	halted int // owned nodes halted, cumulative
	faults faults.Counts
	events []wireEvent
	// sends counts the encoded sends in sendBytes, the rest of the
	// section, which parseStepReply leaves unread; it aliases the frame.
	sends     int
	sendBytes []byte
}

// appendStepHead appends what of a step section precedes its sends.
func appendStepHead(buf []byte, r *stepReply) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.active))
	buf = binary.AppendUvarint(buf, uint64(r.halted))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Dropped))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Duplicated))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Delayed))
	buf = binary.AppendUvarint(buf, uint64(r.faults.Crashed))
	return appendEvents(buf, r.events)
}

// parseStepReply parses a step section up to its sends, which the caller
// reads with cursor.send — every send at least three bytes, so their
// count is bounded by the bytes remaining.
func parseStepReply(b []byte, r *stepReply) error {
	c := cursor{b: b}
	r.active = c.int("step active")
	r.halted = c.int("step halted")
	r.faults.Dropped = int64(c.int("step dropped"))
	r.faults.Duplicated = int64(c.int("step duplicated"))
	r.faults.Delayed = int64(c.int("step delayed"))
	r.faults.Crashed = int64(c.int("step crashed"))
	r.events = c.events(r.events[:0])
	r.sends = c.length("send count")
	r.sendBytes = c.b
	return c.err
}

// The record codec: what a workload harvests is one record of words per
// node (Instance.Harvest), and this is its only wire form — per node in
// ID order, a count and then that many uvarints. A count is a length: it
// cannot exceed the bytes remaining, every word being at least one. The
// body of a FINAL frame is the shard's message count, then the records of
// its owned nodes.
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

// parseHello parses a HELLO body: version byte + shard index.
func parseHello(b []byte) (shard int, err error) {
	c := cursor{b: b}
	if v := c.byte("hello version"); c.err == nil && v != wireVersion {
		return 0, fmt.Errorf("transport: protocol version mismatch: peer %d, this build %d", v, wireVersion)
	}
	shard = c.int("hello shard")
	if err := c.done("hello"); err != nil {
		return 0, err
	}
	return shard, nil
}

func appendHello(buf []byte, shard int) []byte {
	buf = append(buf, wireVersion)
	return binary.AppendUvarint(buf, uint64(shard))
}

// errShardStopped is returned by a shard runtime asked to exit by a
// test hook; exported via errors.Is only within the package tests.
var errShardStopped = errors.New("transport: shard stopped by test hook")
