package transport

// Length-prefixed framing for the TCP backend. One frame is
//
//	[4-byte big-endian length][1-byte type][length-1 payload bytes]
//
// where length counts the type byte plus the payload, so a reader rejects
// zero or absurd lengths before allocating. All structure lives in the
// payload encodings (proto.go). Fuzzed with a committed corpus: truncated
// prefixes, oversized lengths and split reads are errors, never panics.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Frame types. The coordinator starts the run (HELLO in, SPEC out) and
// then only listens: the shards run the rounds among themselves, each
// pair over one peer link, and report to the coordinator unasked.
const (
	frameHello     byte = 1 + iota // shard → coord: version, shard index, peer listen port
	frameSpec                      // coord → shard: JSON wireSpec (spec, peer table, run token)
	frameInitAck                   // shard → coord: peers connected, Init run [+ round-0 step head, with a probe]
	framePeer                      // shard → shard: version, shard index, run token (the dialer's hello)
	frameRound                     // shard → shard: round, delivered, pending, stepped flag [+ halted + wake + sends]
	frameSends                     // shard → shard: round, halted, wake, sends of a step held back
	frameReport                    // shard → coord, probed or alone: round, rounds skipped after it [+ delivered, inbox profile, step head, probed]
	frameAbort                     // shard → coord: a peer failed (guilty shard, its last round and frame, cause)
	frameFinal                     // shard → coord: rounds, limit flag, message count, one record per owned node [+ executed rounds' timings]
	frameTelemetry                 // shard → coord: JSON wireTelemetry (tallies, fault totals [+ flight dump, when SPEC asks: an -obsout run])

	// frameTypeCount sizes per-type tally arrays indexed by frame type.
	frameTypeCount
)

// frameNames maps frame types to the stable names used in telemetry
// exports, flight-recorder events, and attributed errors.
var frameNames = [frameTypeCount]string{
	frameHello:     "HELLO",
	frameSpec:      "SPEC",
	frameInitAck:   "INITACK",
	framePeer:      "PEER",
	frameRound:     "ROUND",
	frameSends:     "SENDS",
	frameReport:    "REPORT",
	frameAbort:     "ABORT",
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

// wireVersion guards against coordinator/shard skew, bumped with any
// incompatible protocol or codec change (history: DESIGN.md §3); 14 sends
// each cross-shard message as the gap to its index in the pair's crossing
// list and its self-delimiting payload, with no receiver, port or length.
const wireVersion = 14

// maxFramePayload bounds a frame's payload: generous (the largest frame is
// a ROUND, linear in the cut between two shards), yet a corrupt or hostile
// length prefix is refused long before a multi-gigabyte allocation.
const maxFramePayload = 16 << 20

// errFrameTooLarge is surfaced for oversized length prefixes, distinct
// from I/O errors so tests (and peers) can tell corruption from a
// dropped connection.
var errFrameTooLarge = errors.New("transport: frame exceeds size limit")

// frameHead is the room beginFrame keeps for a frame's length prefix and
// type byte: a frame built in place is written with one call.
const frameHead = 5

func beginFrame(buf []byte) []byte { return append(buf[:0], make([]byte, frameHead)...) }

// endFrame fills in the head of a frame built in place after beginFrame.
func endFrame(buf []byte, typ byte) ([]byte, error) {
	if n := len(buf) - frameHead; n > maxFramePayload {
		return nil, fmt.Errorf("%w (%d bytes)", errFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-frameHead+1))
	buf[4] = typ
	return buf, nil
}

// readFrame reads one frame, reusing buf for the payload when it fits.
// Truncated input is io.ErrUnexpectedEOF (io.EOF only at a frame
// boundary); an oversized or zero length, errFrameTooLarge or malformed.
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

// connTally counts one endpoint's traffic — a coordinator link, or all of
// a shard's peer links — per direction and frame type, and the writes of
// coordinator-link frames and their latency. Only the goroutine that reads
// the endpoint updates it; it feeds tcpnet_* metrics and -obsout.
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

// sent tallies one frame that went out.
func (t *connTally) sent(frame []byte) {
	t.sentFrames++
	t.sentBytes += int64(len(frame))
	t.sentByType[frame[4]]++
}

// frameConn is one framed connection endpoint. Reads are buffered and
// reuse one payload buffer (valid until the next read); each write sends
// one whole frame.
type frameConn struct {
	conn  net.Conn
	r     *bufio.Reader
	rbuf  []byte
	wbuf  []byte
	tally *connTally
}

func newFrameConn(c net.Conn, t *connTally) *frameConn {
	return &frameConn{conn: c, r: bufio.NewReader(c), tally: t}
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

// write sends one frame, timed for the tcpnet_flush_ns telemetry.
func (c *frameConn) write(typ byte, payload []byte) error {
	buf, err := endFrame(append(beginFrame(c.wbuf), payload...), typ)
	if err != nil {
		return err
	}
	c.wbuf = buf
	c.tally.sent(buf)
	t0 := time.Now()
	_, err = c.conn.Write(buf)
	c.tally.flushes++
	c.tally.flushNS += time.Since(t0).Nanoseconds()
	return err
}
