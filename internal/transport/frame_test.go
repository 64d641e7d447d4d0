package transport

// Framing and payload-parser robustness: truncated frames, oversized
// or zero length prefixes, and split reads must surface as errors —
// never panics, hangs, or silent truncation. The fuzz corpus under
// testdata/fuzz/FuzzReadFrame pins the historically interesting shapes.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/flightrec"
	"almostmix/internal/graph"
)

// appendFrame appends one encoded frame to buf: the reference encoder.
func appendFrame(buf []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > maxFramePayload {
		return nil, fmt.Errorf("%w (%d bytes)", errFrameTooLarge, len(payload))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)+1))
	buf = append(buf, typ)
	return append(buf, payload...), nil
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []struct {
		typ     byte
		payload []byte
	}{
		{frameHello, []byte{wireVersion, 0}},
		{frameInitAck, nil},
		{frameRound, bytes.Repeat([]byte("abc"), 100)},
		{frameFinal, []byte{0xff}},
	}
	var wire []byte
	for _, f := range frames {
		var err error
		wire, err = appendFrame(wire, f.typ, f.payload)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Whole reads and byte-at-a-time reads must decode identically.
	for _, r := range []io.Reader{bytes.NewReader(wire), iotest.OneByteReader(bytes.NewReader(wire))} {
		var buf []byte
		for i, f := range frames {
			typ, payload, err := readFrame(r, buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if typ != f.typ || !bytes.Equal(payload, f.payload) {
				t.Fatalf("frame %d: got (%d, %q), want (%d, %q)", i, typ, payload, f.typ, f.payload)
			}
		}
		if _, _, err := readFrame(r, buf); !errors.Is(err, io.EOF) {
			t.Fatalf("after last frame: err = %v, want clean io.EOF", err)
		}
	}
}

func TestReadFrameRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error // nil = any error
	}{
		{"empty", nil, io.EOF},
		{"truncated header", []byte{0, 0}, nil},
		{"zero length", []byte{0, 0, 0, 0}, nil},
		{"missing type byte", []byte{0, 0, 0, 1}, io.ErrUnexpectedEOF},
		{"truncated payload", []byte{0, 0, 0, 16, 1, 'a', 'b'}, io.ErrUnexpectedEOF},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 1}, errFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readFrame(bytes.NewReader(tc.in), nil)
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := appendFrame(nil, 1, make([]byte, maxFramePayload+1)); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("err = %v, want errFrameTooLarge", err)
	}
}

func FuzzReadFrame(f *testing.F) {
	valid, _ := appendFrame(nil, frameSends, []byte("payload"))
	two, _ := appendFrame(valid, frameInitAck, nil)
	f.Add(valid)
	f.Add(two)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 16, 1, 'a', 'b'})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data), nil)
		// A split read of the same bytes must agree with the whole read.
		styp, spayload, serr := readFrame(iotest.OneByteReader(bytes.NewReader(data)), nil)
		if (err == nil) != (serr == nil) {
			t.Fatalf("whole read err=%v, split read err=%v", err, serr)
		}
		if err != nil {
			return
		}
		if typ != styp || !bytes.Equal(payload, spayload) {
			t.Fatalf("whole read (%d, %q) != split read (%d, %q)", typ, payload, styp, spayload)
		}
		// Round-trip: re-encoding must reproduce the consumed prefix.
		enc, encErr := appendFrame(nil, typ, payload)
		if encErr != nil {
			t.Fatalf("re-encoding a decoded frame: %v", encErr)
		}
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encoded frame differs from input prefix")
		}
	})
}

// TestHelloVersionSkew pins where a version-skewed peer fails: at HELLO,
// with the mismatch message naming both versions, before a spec is sent
// or a round runs. The peer speaks the previous wire version (derived
// from wireVersion, so the test follows every bump) to a real
// coordinator accept loop.
func TestHelloVersionSkew(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		fc := newFrameConn(conn, &connTally{})
		hello := appendHello(nil, 0, 1)
		hello[0] = wireVersion - 1
		fc.write(frameHello, hello)
		io.Copy(io.Discard, conn) // hold the connection until the coordinator hangs up
	}()
	c := &coordinator{tcp: TCP{Shards: 1, Timeout: 10 * time.Second}, inst: &Instance{Graph: graph.FromEdges(1, nil)}}
	c.prepare()
	err = c.accept(ln)
	want := fmt.Sprintf("protocol version mismatch: peer %d, this build %d", wireVersion-1, wireVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("accept of a version-%d peer: err = %v, want %q", wireVersion-1, err, want)
	}
}

// replySeeds are well-formed frame bodies, the starting points of both
// fuzzers; the int is an owned-node count (or shard index).
func replySeeds(f *testing.F) {
	head := func(r stepReply) []byte { return appendStepHead(nil, &r) }
	marks := []wireEvent{{node: 1, round: 0, name: "m"}, {halt: true, node: 1, round: 0}}
	f.Add([]byte{}, 4)
	f.Add(head(stepReply{active: 3, halted: 1, events: marks}), 0) // INITACK with a probe: Init's step head
	// REPORT of round 1 by shard 0 of FuzzAbsorbReplies' star: no rounds
	// skipped, 2 delivered, inboxes {port 0}, {port 3}, {}, {}, then the
	// step head.
	f.Add(append([]byte{1, 0, 2, 1, 0, 1, 3, 0, 0}, head(stepReply{active: 4, halted: 1, events: marks})...), 0)
	f.Add([]byte{1, 5}, 0)                                                            // a lone shard's REPORT of round 1, which skipped the 5 rounds after it
	f.Add(appendRecords([]byte{3, 0, 9}, [][]uint64{{1}, nil, {4, 1 << 40}, {0}}), 1) // FINAL: 3 rounds, no limit, 9 messages, four records
	// ROUND of round 1 by shard 1 of the star, stepped: 1 delivered, none
	// pending, 0 halted, awake at round 2, one send to the centre from node
	// 5, the second of the pair's crossing ports (gap 1), a Tick of Win 3.
	f.Add([]byte{1, 1, 0, 1, 0, 0, 1, 1, 3}, 1)
	// ROUND of round 1 by shard 1, stepped, nothing delivered: its nodes
	// sleep through the 40 rounds after round 2, and the same wake in an
	// overlong form (80 00 reads as 0).
	f.Add([]byte{1, 0, 0, 1, 0, 40, 0}, 1)
	f.Add([]byte{1, 0, 0, 1, 0, 0x80, 0, 0}, 1)
	f.Add(appendHello(nil, 3, 40000), 1)
	// SENDS of round 1 by shard 1 of the star, with two sends at crossing
	// ports 0 and 1 and too few bytes for them: the first payload takes
	// the second send's gap as its word, and the second has none.
	f.Add([]byte{1, 0, 0, 2, 0, 0}, 1)
	// A ROUND whose send gap takes an overlong form (81 80 00 reads as 1):
	// one byte form per value, so a frame reads one way only.
	f.Add([]byte{1, 1, 0, 1, 0, 0, 1, 0x81, 0x80, 0, 3}, 0)
	f.Add([]byte{1, 0, 0, 0}, 1) // ROUND of round 1 with the step held back
	f.Add(appendAbort(nil, &shardError{Shard: 1, What: "read", Phase: "peer-wait", LastRound: 4, LastFrame: "ROUND", err: errShardStopped}), 0)
}

// FuzzParseReplies drives the typed payload parsers — the record codec
// included — with arbitrary bodies: errors are expected, panics and
// unbounded allocations are not (the cursor bounds every length field by
// the bytes remaining), and a step head or an ABORT that parses
// re-encodes to the same bytes — every value has one byte form.
func FuzzParseReplies(f *testing.F) {
	replySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, owned int) {
		if owned < 0 || owned > 1<<16 {
			return
		}
		var step stepReply
		cur := cursor{b: data}
		if cur.stepHead(&step); cur.done("step head") == nil {
			if again := appendStepHead(nil, &step); !bytes.Equal(again, data) {
				t.Fatalf("step head %x re-encodes as %x", data, again)
			}
		}
		cur = cursor{b: data}
		if records := cur.records(nil, owned); cur.err == nil && len(records) != owned {
			t.Fatalf("parsed %d records for %d owned nodes", len(records), owned)
		}
		_, _, _ = parseHello(data)
	})
}

// TestRecordCodec: records round-trip, and every way their bytes can be
// wrong — the cases each workload's blob parser used to answer for itself
// — is an error here, once.
func TestRecordCodec(t *testing.T) {
	parse := func(b []byte, owned int) ([][]uint64, error) {
		cur := cursor{b: b}
		records := cur.records(nil, owned)
		return records, cur.done("records")
	}
	records := [][]uint64{{7}, nil, {3, 0, 1 << 63}, {0}}
	got, err := parse(appendRecords(nil, records), len(records))
	if err != nil || !slices.EqualFunc(got, records, slices.Equal[[]uint64]) {
		t.Fatalf("round trip: got %v, %v; want %v", got, err, records)
	}
	uv := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x7f) // more than 64 bits of uvarint
	for name, bad := range map[string][]byte{
		"empty":                 nil,
		"truncated count":       {0x80},
		"truncated word":        append(uv(1), 0x80),
		"count beyond the body": uv(3, 1, 1),
		"records for one node":  uv(1, 9),
		"records for three":     uv(1, 9, 0, 0),
		"trailing bytes":        uv(1, 9, 0, 7),
		"word overflows uint64": append(uv(1), append(overflow, 0)...),
		"huge count":            uv(1 << 62),
	} {
		if got, err := parse(bad, 2); err == nil {
			t.Errorf("%s: %x parsed as %v", name, bad, got)
		}
	}
}

// FuzzAbsorbReplies goes one level up: each body is absorbed as every
// frame type by a coordinator over a small fixed graph, with a probe
// attached and without, for an -obsout run (SPEC asks for the flight dump)
// and without — the state a hostile shard's numbers would index — and as a
// ROUND and a SENDS by each shard of the same graph from its peer. A
// rejected frame is the expected outcome; a panic is the bug.
func FuzzAbsorbReplies(f *testing.F) {
	replySeeds(f)
	// TELEMETRY of each shard of two, with its flight dump and without.
	for shard := range 2 {
		rec := flightrec.New("shard", shard, 4)
		rec.Record(flightrec.KindFrameSent, "FINAL", 3, -1, 40, "")
		d := rec.Dump(flightrec.ReasonFinish)
		for _, dump := range []*flightrec.Dump{nil, &d} {
			body, err := json.Marshal(wireTelemetry{WireStats: WireStats{Endpoint: "shard", Shard: shard}, Peer: &WireStats{Endpoint: "peer", Shard: shard}, Dump: dump})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body, shard)
		}
	}
	g := graph.Star(8) // node 0 has degree 7, the rest degree 1: ports are not interchangeable
	f.Fuzz(func(t *testing.T, data []byte, shard int) {
		const k = 2
		if shard < 0 || shard >= k {
			return
		}
		for _, mode := range []struct{ probe, obs bool }{{true, false}, {false, false}, {true, true}, {false, true}} {
			c := &coordinator{tcp: TCP{Shards: k}, inst: &Instance{Graph: g}}
			if mode.probe {
				c.opts.Probe, c.agg = congest.NopProbe{}, congest.NewRoundAggregator(g)
			}
			if mode.obs {
				c.tcp.ObsOut = "obs.json" // only named: absorbing writes nothing
			}
			c.prepare()
			_ = c.absorbInitAck(shard, data)
			_ = c.absorbReport(shard, data)
			_ = c.absorbFinal(shard, data)
			_ = c.absorbTelemetry(shard, data)
			_ = c.aborted(inFrame{shard: shard, typ: frameAbort, body: data})
			// Whatever was absorbed has to be usable: the round closes, and
			// the obs document validates.
			if c.tcp.ObsOut != "" {
				if err := ValidateObs(c.obsDoc(flightrec.ReasonFinish, nil, c.wireRows())); err != nil {
					t.Fatalf("absorbed TELEMETRY %q makes an invalid obs document: %v", data, err)
				}
			}
			if mode.probe {
				c.agg.RoundEnd(c.opts.Probe, 1, c.delivered, c.active, c.halted, c.roundFaults)
			}
		}
		r := testRuntime(t, g, k, shard)
		peer := r.links[1-shard]
		for round, typ := range []byte{frameRound, frameSends} {
			_ = r.take(peer, typ, round, data)
		}
		// Whatever was staged is delivered.
		r.s.Deliver()
	})
}
