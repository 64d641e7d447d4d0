// Package flightrec is the crash-safe flight recorder of the transport
// tier: a fixed-size ring buffer of recent transport events (frames
// sent and received, barrier transitions, timeouts, signals) kept on
// the coordinator and on every shard process, cheap enough to stay on
// unconditionally. When a run dies — shard death, barrier deadline,
// panic, SIGTERM — the ring is dumped as a deterministic-schema JSON
// document that names the guilty shard, its last completed round and
// the barrier phase it died in, so a stall on a real TCP run leaves
// evidence instead of a bare timeout error.
//
// The recorder follows the repo's nil-off-switch discipline
// (DESIGN.md §3): every method on a nil *Recorder is a no-op, so call
// sites thread it unconditionally. Recording allocates nothing after
// construction — an event is a fixed-size, pointer-free record written
// into a preallocated ring — but a note, which only failure paths pass,
// and a frame name seen for the first time may.
package flightrec

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"almostmix/internal/harness"
)

// Schema identifies the dump layout. Bump on any incompatible change so
// downstream consumers (cmd/obsreport, the smoke suite) can
// dispatch on it.
const Schema = "almostmix-flightrec/v1"

// DefaultCapacity is the ring size used when a caller passes cap <= 0:
// large enough to hold several rounds of frame traffic on every
// plausible shard count. Its ring is 12 KiB (512 records of 24 B), and
// New allocates 12.6 KiB in all (TestRecorderCost).
const DefaultCapacity = 512

// Event kinds. Dumps are consumed by scripts, so these are stable
// strings rather than iota constants.
const (
	KindFrameSent = "frame-sent"
	KindFrameRecv = "frame-recv"
	KindBarrier   = "barrier"
	KindTimeout   = "timeout"
	KindError     = "error"
	KindSignal    = "signal"
	KindPanic     = "panic"
)

// Dump reasons. Validate rejects anything else, so a new trigger must
// be added here before a dump can carry it.
const (
	ReasonFinish          = "finish"
	ReasonShardDeath      = "shard-death"
	ReasonBarrierDeadline = "barrier-deadline"
	ReasonPanic           = "panic"
	ReasonSigterm         = "sigterm"
	ReasonError           = "error"
)

var validReasons = map[string]bool{
	ReasonFinish:          true,
	ReasonShardDeath:      true,
	ReasonBarrierDeadline: true,
	ReasonPanic:           true,
	ReasonSigterm:         true,
	ReasonError:           true,
}

// Event is one recorded transport event. TNS is nanoseconds since the
// recorder was created (relative, so two dumps from one run can be
// interleaved without clock agreement between processes). Shard is the
// peer the event concerns, -1 when not applicable.
type Event struct {
	Seq   uint64 `json:"seq"`
	TNS   int64  `json:"t_ns"`
	Kind  string `json:"kind"`
	Frame string `json:"frame,omitempty"`
	Round int    `json:"round"`
	Shard int    `json:"shard"`
	Bytes int    `json:"bytes,omitempty"`
	Note  string `json:"note,omitempty"`
}

// Recorder is a concurrency-safe fixed-size ring of Events. The zero
// value is not usable — New allocates one — but a nil *Recorder is: all
// its methods no-op, the recording-off fast path.
//
// The ring holds compact records, not Events: kind and frame are codes
// into a name table of the recorder's own, round, shard and bytes are
// int32, and the sequence number is the slot's position. A note, which
// only error paths pass, waits beside the ring in aside, keyed by slot,
// and leaves with the record it belongs to. Dump expands the records
// back into Events.
type Recorder struct {
	mu    sync.Mutex
	role  string
	shard int
	start time.Time
	ring  []record // len == capacity
	seq   uint64   // total events ever recorded; the next goes to slot seq % capacity
	names []string // code → name; names[0] is ""
	aside map[int]aside
}

// record is one ring slot: 24 bytes and no pointers, so the ring is one
// allocation the collector never scans.
type record struct {
	tns                 int64
	round, shard, bytes int32
	kind, frame         uint8 // codes into Recorder.names, or nameAside
	aside               bool  // the slot has an entry in Recorder.aside
}

// aside is what a record keeps off the ring: its note, and a kind or frame
// that came after the name table filled up.
type aside struct{ kind, frame, note string }

// nameAside is the code of a name kept in aside: the table holds at most
// nameAside names, "" included, so a code fits a byte.
const nameAside = 255

// New returns a recorder for one endpoint: role is "coord" or "shard",
// shard the owning shard index (-1 for the coordinator), capacity the
// ring size (<= 0 selects DefaultCapacity).
func New(role string, shard, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	names := make([]string, 1, 32)
	names = append(names, KindFrameSent, KindFrameRecv, KindBarrier, KindTimeout, KindError, KindSignal, KindPanic)
	return &Recorder{
		role:  role,
		shard: shard,
		start: time.Now(),
		ring:  make([]record, capacity),
		names: names,
	}
}

// Record appends one event, overwriting the oldest when the ring is
// full. Round, shard and bytes saturate at the int32 range. Safe for
// concurrent use; a nil recorder ignores the call. Only a note, a name
// seen for the first time or one past a full name table may allocate.
func (r *Recorder) Record(kind, frame string, round, shard, bytes int, note string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	slot := int(r.seq % uint64(len(r.ring)))
	rec := &r.ring[slot]
	if rec.aside {
		delete(r.aside, slot)
	}
	*rec = record{
		tns:   time.Since(r.start).Nanoseconds(),
		round: sat32(round),
		shard: sat32(shard),
		bytes: sat32(bytes),
		kind:  r.code(kind),
		frame: r.code(frame),
	}
	if note != "" || rec.kind == nameAside || rec.frame == nameAside {
		if r.aside == nil {
			r.aside = make(map[int]aside)
		}
		rec.aside, r.aside[slot] = true, aside{kind: kind, frame: frame, note: note}
	}
	r.seq++
	r.mu.Unlock()
}

// sat32 saturates v at the int32 range.
func sat32(v int) int32 { return int32(max(math.MinInt32, min(v, math.MaxInt32))) }

// code is the name's code, entered in the table on first sight; nameAside
// once the table is full.
func (r *Recorder) code(name string) uint8 {
	for i, n := range r.names {
		if n == name {
			return uint8(i)
		}
	}
	if len(r.names) == nameAside {
		return nameAside
	}
	r.names = append(r.names, name)
	return uint8(len(r.names) - 1)
}

// event expands the record in slot into the Event of sequence number seq.
func (r *Recorder) event(slot int, seq uint64) Event {
	rec := &r.ring[slot]
	ev := Event{Seq: seq, TNS: rec.tns, Round: int(rec.round), Shard: int(rec.shard), Bytes: int(rec.bytes)}
	var a aside
	if rec.aside {
		a = r.aside[slot]
	}
	ev.Kind, ev.Frame, ev.Note = a.kind, a.frame, a.note
	if rec.kind != nameAside {
		ev.Kind = r.names[rec.kind]
	}
	if rec.frame != nameAside {
		ev.Frame = r.names[rec.frame]
	}
	return ev
}

// Dump is the crash-safe export of one recorder: the surviving ring in
// sequence order plus the failure attribution. GuiltyShard is -1 when
// no single shard is to blame (clean finish, coordinator-side error).
type Dump struct {
	Schema      string  `json:"schema"`
	Role        string  `json:"role"`
	Shard       int     `json:"shard"`
	Reason      string  `json:"reason"`
	GuiltyShard int     `json:"guilty_shard"`
	LastRound   int     `json:"last_round"`
	Phase       string  `json:"phase,omitempty"`
	Error       string  `json:"error,omitempty"`
	Dropped     uint64  `json:"dropped_events"`
	Events      []Event `json:"events"`
}

// Dump snapshots the ring under the given reason. LastRound defaults to
// the highest round any surviving event carries (callers with better
// knowledge — the coordinator knows its barrier counter — overwrite
// it); GuiltyShard defaults to -1. A nil recorder returns a schema-
// stamped empty dump so crash paths never branch.
func (r *Recorder) Dump(reason string) Dump {
	d := Dump{Schema: Schema, Role: "none", Shard: -1, Reason: reason, GuiltyShard: -1}
	if r == nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d.Role = r.role
	d.Shard = r.shard
	capacity := uint64(len(r.ring))
	kept := min(r.seq, capacity)
	d.Dropped = r.seq - kept
	d.Events = make([]Event, kept)
	for i := range d.Events {
		seq := d.Dropped + uint64(i)
		d.Events[i] = r.event(int(seq%capacity), seq)
	}
	for _, ev := range d.Events {
		if ev.Round > d.LastRound {
			d.LastRound = ev.Round
		}
	}
	return d
}

// Attribute fills the failure fields of a dump in place and returns it,
// so crash paths read as one expression.
func (d Dump) Attribute(guilty, lastRound int, phase, errMsg string) Dump {
	d.GuiltyShard = guilty
	d.LastRound = lastRound
	d.Phase = phase
	d.Error = errMsg
	return d
}

// Validate checks a dump against the schema contract: the stamp, a
// known reason, a role, and events in strictly ascending sequence
// order. The smoke suite and cmd/obsreport both gate on it.
func Validate(d *Dump) error {
	if d == nil {
		return fmt.Errorf("flightrec: nil dump")
	}
	if d.Schema != Schema {
		return fmt.Errorf("flightrec: schema %q, want %q", d.Schema, Schema)
	}
	if !validReasons[d.Reason] {
		return fmt.Errorf("flightrec: unknown dump reason %q", d.Reason)
	}
	if d.Role == "" {
		return fmt.Errorf("flightrec: dump has no role")
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Seq <= d.Events[i-1].Seq {
			return fmt.Errorf("flightrec: events out of sequence at index %d (%d after %d)",
				i, d.Events[i].Seq, d.Events[i-1].Seq)
		}
	}
	for i, ev := range d.Events {
		if ev.Kind == "" {
			return fmt.Errorf("flightrec: event %d has no kind", i)
		}
	}
	return nil
}

// WriteJSON writes the dump as one indented JSON document.
func (d Dump) WriteJSON(w io.Writer) error { return harness.WriteJSON(w, d) }

// WriteDump writes the dump to path, or to stderr when path is "" —
// the crash path of a shard process whose stderr is piped through to
// the coordinator's. Every I/O error is returned wrapped with the
// destination so exit paths can still report it.
func WriteDump(path string, d Dump) error {
	if path == "" {
		if err := d.WriteJSON(os.Stderr); err != nil {
			return fmt.Errorf("flightrec: write stderr: %w", err)
		}
		return nil
	}
	return harness.WriteFile(path, "flightrec", d.WriteJSON)
}
