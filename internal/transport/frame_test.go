package transport

// Framing and payload-parser robustness: truncated frames, oversized
// or zero length prefixes, and split reads must surface as errors —
// never panics, hangs, or silent truncation. The fuzz corpus under
// testdata/fuzz/FuzzReadFrame pins the historically interesting shapes.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []struct {
		typ     byte
		payload []byte
	}{
		{frameHello, []byte{wireVersion, 0}},
		{frameStep, nil},
		{frameDeliver, bytes.Repeat([]byte("abc"), 100)},
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
	valid, _ := appendFrame(nil, frameStepped, []byte("payload"))
	two, _ := appendFrame(valid, frameFinish, nil)
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
		fc := newFrameConn(conn)
		hello := appendHello(nil, 0)
		hello[0] = wireVersion - 1
		fc.write(frameHello, hello)
		fc.flush()
		io.Copy(io.Discard, conn) // hold the connection until the coordinator hangs up
	}()
	c := &coordinator{tcp: TCP{Shards: 1, Timeout: 10 * time.Second}}
	c.obsInit(1)
	err = c.accept(ln)
	want := fmt.Sprintf("protocol version mismatch: peer %d, this build %d", wireVersion-1, wireVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("accept of a version-%d peer: err = %v, want %q", wireVersion-1, err, want)
	}
}

// FuzzParseReplies drives the typed payload parsers with arbitrary
// bodies: errors are expected, panics and unbounded allocations are not
// (the cursor bounds every length field by the bytes remaining).
func FuzzParseReplies(f *testing.F) {
	f.Add([]byte{}, 4)
	f.Add(appendStepReply(nil, &stepReply{active: 3, halted: 1,
		events: []wireEvent{{node: 1, round: 2, name: "m"}, {halt: true, node: 1, round: 2}},
		sends:  []wireSend{{dst: 7, port: 1, payload: []byte("x")}}}), 8)
	f.Add(appendDeliveredReply(nil, &deliveredReply{delivered: 2, sizes: []int{1, 1}, ports: []int{0, 3}}), 2)
	f.Add(appendFinalReply(nil, &finalReply{messages: 9, result: []byte("blob")}), 1)
	f.Add(appendHello(nil, 3), 1)
	f.Fuzz(func(t *testing.T, data []byte, owned int) {
		if owned < 0 || owned > 1<<16 {
			return
		}
		var step stepReply
		_ = parseStepReply(data, &step)
		var del deliveredReply
		_ = parseDeliveredReply(data, owned, &del)
		var fin finalReply
		_ = parseFinalReply(data, &fin)
		_, _ = parseHello(data)
	})
}
