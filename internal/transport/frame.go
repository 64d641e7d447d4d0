package transport

// Length-prefixed framing for the TCP backend. One frame is
//
//	[4-byte big-endian length][1-byte type][length-1 payload bytes]
//
// where length counts the type byte plus the payload, so a frame is
// never empty and a reader can reject zero or absurd lengths before
// allocating. The framing is deliberately minimal — all structure lives
// in the typed payload encodings (proto.go) — and is fuzzed with a
// committed corpus (frame_test.go): truncated prefixes, oversized
// lengths and split reads must all surface as errors, never as panics
// or hangs.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Frame types. The coordinator initiates every phase; shards only ever
// respond, so each request type pairs with the response below it. A
// round is DELIVER→DELIVERED, the step riding the reply; STEP→STEPPED is
// the fallback for a shard that held its step back because the round
// could be quiet from where it stood.
const (
	frameHello     byte = 1 + iota // shard → coord: version, shard index
	frameSpec                      // coord → shard: JSON wireSpec
	frameInit                      // coord → shard: run Init (round 0)
	frameInitAck                   // shard → coord: round-0 step section (events, halted, external sends)
	frameDeliver                   // coord → shard: relayed cross-shard messages; deliver, then step unless quiet-capable
	frameDelivered                 // shard → coord: round, delivered and pending counts, [per-node inbox profile, with a probe,] stepped flag [+ step section]
	frameStep                      // coord → shard: run the held-back Step of a round that was not quiet
	frameStepped                   // shard → coord: step section (active, halted, fault counts, events, external sends)
	frameFinish                    // coord → shard: run over, harvest
	frameFinal                     // shard → coord: message count, one harvest record per owned node
	frameTelemetry                 // shard → coord: JSON wireTelemetry (tallies + flight dump)

	// frameTypeCount sizes per-type tally arrays indexed by frame type.
	frameTypeCount
)

// frameNames maps frame types to the stable names used in telemetry
// exports, flight-recorder events, and attributed errors.
var frameNames = [frameTypeCount]string{
	frameHello:     "HELLO",
	frameSpec:      "SPEC",
	frameInit:      "INIT",
	frameInitAck:   "INITACK",
	frameDeliver:   "DELIVER",
	frameDelivered: "DELIVERED",
	frameStep:      "STEP",
	frameStepped:   "STEPPED",
	frameFinish:    "FINISH",
	frameFinal:     "FINAL",
	frameTelemetry: "TELEMETRY",
}

// frameName names a frame type for telemetry and error attribution;
// unknown types (and the zero "no frame yet" value) render as "none".
func frameName(typ byte) string {
	if int(typ) < len(frameNames) && frameNames[typ] != "" {
		return frameNames[typ]
	}
	return "none"
}

// wireVersion guards against coordinator/shard skew; bumped with any
// incompatible protocol or codec change. Version 2 added the mandatory
// TELEMETRY frame after FINAL and the flightrec field of the wire spec.
// Version 3 added faults over the wire: the spec's fault fields,
// per-round fault counts on STEPPED, the pending delayed count on
// DELIVERED, and the fault totals on TELEMETRY. Version 4 made the
// TELEMETRY body a WireStats row plus the flight dump, which added its
// "endpoint" key. Version 5 removed frame type 12, which carried
// pre-rolled fault decisions from the coordinator: every shard now rolls
// them from the plan it rebuilds from the spec. Version 6 made the FINAL
// body the message count plus one record per owned node (the record
// codec, proto.go) in place of an opaque workload blob. Version 7 folded
// the step into DELIVER: a shard steps on DELIVER unless the round may be
// quiet from its own counts, DELIVERED gained the round it answers (the
// lost DELIVERED/STEPPED alternation used to expose a replayed reply), the
// stepped flag and the step section, and STEP is sent only to the shards
// that held back. Version 8 ships the DELIVERED inbox profile only when the
// coordinator has a probe (the wire spec's "probe" key says so), and the
// cursor refuses overlong uvarints, so the sends a step section carries
// are relayed in DELIVER as the very bytes the coordinator checked.
const wireVersion = 8

// maxFramePayload bounds a frame's payload. Generous — the largest
// legitimate frame is a DELIVER batch, linear in a shard's boundary
// cut — while still rejecting a corrupt or hostile length prefix long
// before a multi-gigabyte allocation.
const maxFramePayload = 16 << 20

// errFrameTooLarge is surfaced for oversized length prefixes, distinct
// from I/O errors so tests (and peers) can tell corruption from a
// dropped connection.
var errFrameTooLarge = errors.New("transport: frame exceeds size limit")

// appendFrame appends one encoded frame to buf.
func appendFrame(buf []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > maxFramePayload {
		return nil, fmt.Errorf("%w (%d bytes)", errFrameTooLarge, len(payload))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)+1))
	buf = append(buf, typ)
	return append(buf, payload...), nil
}

// readFrame reads one frame, reusing buf for the payload when it fits.
// Truncated input surfaces as io.ErrUnexpectedEOF (io.EOF only at a
// clean frame boundary); oversized or zero lengths as errFrameTooLarge
// or a malformed-frame error.
func readFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length == 0 {
		return 0, nil, errors.New("transport: malformed frame: zero length")
	}
	if length > maxFramePayload+1 {
		return 0, nil, fmt.Errorf("%w (%d bytes)", errFrameTooLarge, length)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, eofIsUnexpected(err)
	}
	typ = hdr[4]
	n := int(length) - 1
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, eofIsUnexpected(err)
	}
	return typ, payload, nil
}

// eofIsUnexpected maps a clean EOF mid-frame to io.ErrUnexpectedEOF:
// only an EOF before any header byte means the peer closed cleanly.
func eofIsUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// connTally is the wire-telemetry counter block of one frameConn
// endpoint: directional frame/byte totals, per-frame-type breakdowns,
// and flush count/latency. It is plain int64s updated by the single
// goroutine that owns the connection — cheap enough to stay on
// unconditionally — and is snapshotted into tcpnet_* metrics and the
// -obsout document at run end.
type connTally struct {
	sentFrames int64
	recvFrames int64
	sentBytes  int64
	recvBytes  int64
	sentByType [frameTypeCount]int64
	recvByType [frameTypeCount]int64
	flushes    int64
	flushNS    int64
}

// frames and bytes aggregate both directions — the tallies the
// pre-telemetry tcpnet_frames_total/tcpnet_bytes_total counters export.
func (t *connTally) frames() int64 { return t.sentFrames + t.recvFrames }
func (t *connTally) bytes() int64  { return t.sentBytes + t.recvBytes }

// frameConn is one framed, buffered connection endpoint. Reads reuse a
// single payload buffer (valid until the next read); writes accumulate
// in the bufio writer until flush. It also tallies traffic for the
// tcpnet_* metrics (per frame type and direction, plus flush latency).
type frameConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	rbuf []byte
	wbuf []byte

	tally connTally
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// read reads the next frame; the returned payload is only valid until
// the next read call.
func (c *frameConn) read() (byte, []byte, error) {
	typ, payload, err := readFrame(c.r, c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	if cap(payload) > cap(c.rbuf) {
		c.rbuf = payload[:cap(payload)]
	}
	c.tally.recvFrames++
	c.tally.recvBytes += int64(len(payload)) + 5
	if int(typ) < len(c.tally.recvByType) {
		c.tally.recvByType[typ]++
	}
	return typ, payload, nil
}

// write queues one frame; flush sends the queue.
func (c *frameConn) write(typ byte, payload []byte) error {
	buf, err := appendFrame(c.wbuf[:0], typ, payload)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	c.tally.sentFrames++
	c.tally.sentBytes += int64(len(buf))
	if int(typ) < len(c.tally.sentByType) {
		c.tally.sentByType[typ]++
	}
	_, err = c.w.Write(buf)
	return err
}

// flush sends the queued frames, timing the write-out for the
// tcpnet_flush_ns telemetry (one flush per barrier per peer, so the two
// clock reads sit far outside the per-message hot path).
func (c *frameConn) flush() error {
	t0 := time.Now()
	err := c.w.Flush()
	c.tally.flushes++
	c.tally.flushNS += time.Since(t0).Nanoseconds()
	return err
}
