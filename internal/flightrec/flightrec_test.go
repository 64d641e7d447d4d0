package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	r.Record(KindBarrier, "", 1, 0, 0, "")
	d := r.Dump(ReasonFinish)
	if d.Schema != Schema || d.Role != "none" || len(d.Events) != 0 {
		t.Errorf("nil recorder dump = %+v, want empty schema-stamped dump", d)
	}
	if err := Validate(&d); err != nil {
		t.Errorf("nil recorder dump invalid: %v", err)
	}
}

func TestRingKeepsNewestInOrder(t *testing.T) {
	r := New("coord", -1, 8)
	for i := 0; i < 20; i++ {
		r.Record(KindFrameSent, "STEP", i, i%3, 10, "")
	}
	d := r.Dump(ReasonError)
	if len(d.Events) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(d.Events))
	}
	if d.Dropped != 12 {
		t.Errorf("dropped = %d, want 12", d.Dropped)
	}
	for i, ev := range d.Events {
		if want := uint64(12 + i); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if d.LastRound != 19 {
		t.Errorf("last round = %d, want 19 (highest surviving round)", d.LastRound)
	}
	if err := Validate(&d); err != nil {
		t.Errorf("wrapped ring dump invalid: %v", err)
	}
}

func TestPartialRingDump(t *testing.T) {
	r := New("shard", 2, 16)
	r.Record(KindFrameRecv, "SPEC", 0, -1, 33, "")
	r.Record(KindBarrier, "", 1, -1, 0, "deliver")
	d := r.Dump(ReasonFinish)
	if len(d.Events) != 2 || d.Dropped != 0 {
		t.Fatalf("dump = %d events / %d dropped, want 2 / 0", len(d.Events), d.Dropped)
	}
	if d.Role != "shard" || d.Shard != 2 {
		t.Errorf("dump role/shard = %s/%d, want shard/2", d.Role, d.Shard)
	}
	if d.GuiltyShard != -1 {
		t.Errorf("default guilty shard = %d, want -1", d.GuiltyShard)
	}
}

func TestAttribute(t *testing.T) {
	d := New("coord", -1, 4).Dump(ReasonBarrierDeadline).
		Attribute(3, 17, "step-wait", "read timeout")
	if d.GuiltyShard != 3 || d.LastRound != 17 || d.Phase != "step-wait" || d.Error != "read timeout" {
		t.Errorf("attributed dump = %+v", d)
	}
	if err := Validate(&d); err != nil {
		t.Errorf("attributed dump invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Dump { return New("coord", -1, 4).Dump(ReasonFinish) }
	for name, mutate := range map[string]func(*Dump){
		"bad schema":     func(d *Dump) { d.Schema = "nope" },
		"bad reason":     func(d *Dump) { d.Reason = "overheated" },
		"no role":        func(d *Dump) { d.Role = "" },
		"out of order":   func(d *Dump) { d.Events = []Event{{Seq: 5, Kind: KindBarrier}, {Seq: 5, Kind: KindBarrier}} },
		"kindless event": func(d *Dump) { d.Events = []Event{{Seq: 1}} },
	} {
		d := base()
		mutate(&d)
		if err := Validate(&d); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, d)
		}
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	r := New("shard", 1, 8)
	r.Record(KindFrameSent, "STEPPED", 4, -1, 99, "")
	r.Record(KindTimeout, "", 5, -1, 0, "deadline")
	want := r.Dump(ReasonShardDeath).Attribute(1, 4, "step-wait", "connection reset")
	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := readDump(t, buf.Bytes())
	if got.Reason != want.Reason || got.GuiltyShard != 1 || got.LastRound != 4 ||
		got.Phase != "step-wait" || len(got.Events) != 2 {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

// readDump decodes one dump document and validates it, as
// transport.ReadObs does for every dump it embeds.
func readDump(t *testing.T, b []byte) *Dump {
	t.Helper()
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("decoding dump: %v", err)
	}
	if err := Validate(&d); err != nil {
		t.Fatalf("dump does not validate: %v", err)
	}
	return &d
}

func TestWriteDumpFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := WriteDump(path, New("coord", -1, 4).Dump(ReasonSigterm)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), Schema) {
		t.Errorf("dump file lacks the schema stamp:\n%s", b)
	}
	readDump(t, b)
	if err := WriteDump(filepath.Join(t.TempDir(), "no", "such", "dir", "d.json"),
		New("coord", -1, 4).Dump(ReasonFinish)); err == nil {
		t.Error("WriteDump to an unwritable path reported success")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New("coord", -1, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(KindFrameRecv, "DELIVERED", i, w, 7, "")
			}
		}(w)
	}
	wg.Wait()
	d := r.Dump(ReasonFinish)
	if err := Validate(&d); err != nil {
		t.Fatalf("concurrent dump invalid: %v", err)
	}
	if d.Dropped+uint64(len(d.Events)) != 800 {
		t.Errorf("events + dropped = %d, want 800", d.Dropped+uint64(len(d.Events)))
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := New("coord", -1, 0)
	for i := 0; i < DefaultCapacity+10; i++ {
		r.Record(KindBarrier, "", i, -1, 0, fmt.Sprintf("r%d", i))
	}
	if d := r.Dump(ReasonFinish); len(d.Events) != DefaultCapacity {
		t.Errorf("default-capacity ring kept %d events, want %d", len(d.Events), DefaultCapacity)
	}
}

// refRecorder is the recorder as it was before the compact ring: every
// Event kept whole in a slice, its strings included. The differential
// test holds Recorder to it.
type refRecorder struct {
	role  string
	shard int
	buf   []Event
	cap   int
	seq   uint64
}

func (r *refRecorder) record(tns int64, kind, frame string, round, shard, bytes int, note string) {
	ev := Event{Seq: r.seq, TNS: tns, Kind: kind, Frame: frame, Round: round, Shard: shard, Bytes: bytes, Note: note}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[int(r.seq)%r.cap] = ev
	}
	r.seq++
}

func (r *refRecorder) dump(reason string) Dump {
	d := Dump{Schema: Schema, Role: r.role, Shard: r.shard, Reason: reason, GuiltyShard: -1}
	d.Dropped = r.seq - uint64(len(r.buf))
	d.Events = make([]Event, 0, len(r.buf))
	if len(r.buf) == r.cap {
		at := int(r.seq) % r.cap
		d.Events = append(d.Events, r.buf[at:]...)
		d.Events = append(d.Events, r.buf[:at]...)
	} else {
		d.Events = append(d.Events, r.buf...)
	}
	for _, ev := range d.Events {
		if ev.Round > d.LastRound {
			d.LastRound = ev.Round
		}
	}
	return d
}

// TestCompactRingMatchesEventRing records random sequences into a
// Recorder and into refRecorder — every kind, notes, frame names old,
// new and empty, enough fresh names to fill the name table, rings that
// wrap — and demands equal dumps, as values and as JSON bytes, at points
// along the way. The reference takes each event's timestamp from the slot
// Record just wrote.
func TestCompactRingMatchesEventRing(t *testing.T) {
	kinds := []string{KindFrameSent, KindFrameRecv, KindBarrier, KindTimeout, KindError, KindSignal, KindPanic}
	known := []string{"", "HELLO", "SPEC", "INITACK", "ROUND", "SENDS", "REPORT", "FINAL", "TELEMETRY", "none"}
	for _, tc := range []struct {
		capacity, events int
		fresh            float64 // share of events that name a frame for the first time
	}{
		{1, 40, 0.1}, {7, 300, 0.2}, {512, 2000, 0.05}, {512, 1500, 0.5}, {7, 5, 0.5},
	} {
		t.Run(fmt.Sprintf("cap%d_events%d", tc.capacity, tc.events), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(tc.capacity), uint64(tc.events)))
			r := New("shard", 3, tc.capacity)
			ref := &refRecorder{role: "shard", shard: 3, cap: tc.capacity}
			frames, fresh := slices.Clone(known), 0
			for i := 0; i < tc.events; i++ {
				kind := kinds[rng.IntN(len(kinds))]
				frame := frames[rng.IntN(len(frames))]
				if rng.Float64() < tc.fresh {
					fresh++
					frame = fmt.Sprintf("F%d", fresh)
					frames = append(frames, frame)
				}
				note := ""
				if rng.IntN(5) == 0 {
					note = fmt.Sprintf("note %d", i)
				}
				round, shard, size := rng.IntN(1<<31)-1, rng.IntN(9)-1, rng.IntN(1<<24)
				r.Record(kind, frame, round, shard, size, note)
				ref.record(r.ring[(r.seq-1)%uint64(len(r.ring))].tns, kind, frame, round, shard, size, note)
				if i%97 == 0 || i == tc.events-1 {
					got, want := r.Dump(ReasonFinish), ref.dump(ReasonFinish)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("after %d events: dump\n%+v\nwant\n%+v", i+1, got, want)
					}
					gb, _ := json.Marshal(got)
					wb, _ := json.Marshal(want)
					if !bytes.Equal(gb, wb) {
						t.Fatalf("after %d events: JSON\n%s\nwant\n%s", i+1, gb, wb)
					}
				}
			}
			if notes := len(r.aside); notes > tc.capacity {
				t.Errorf("%d records kept aside for a ring of %d: evicted records left theirs behind", notes, tc.capacity)
			}
			if fresh > nameAside && len(r.names) != nameAside {
				t.Errorf("name table holds %d names after %d fresh ones, want it full at %d", len(r.names), fresh, nameAside)
			}
		})
	}
}

// TestRecorderCost pins the recorder's memory: a ring slot is at most
// 32 B, a default-capacity recorder allocates at most 16 KB, and Record
// without a note nothing.
func TestRecorderCost(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 32 {
		t.Errorf("a ring slot is %d B, want at most 32", size)
	}
	var before, after runtime.MemStats
	const n = 64
	keep := make([]*Recorder, n)
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New("coord", -1, 0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 16000 {
		t.Errorf("a default recorder allocates %d B, want at most 16 000", per)
	} else {
		t.Logf("a default recorder allocates %d B", per)
	}
	r := keep[0]
	r.Record(KindFrameSent, "ROUND", 1, 0, 10, "") // the frame's first sight enters it in the table
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindFrameSent, "ROUND", 2, 1, 99, "")
		r.Record(KindBarrier, "", 3, -1, 0, "")
	}); allocs != 0 {
		t.Errorf("Record without a note allocates %.1f times per call pair, want 0", allocs)
	}
}

// TestRecordSaturates: round, shard and bytes beyond the int32 range are
// kept as its nearest end.
func TestRecordSaturates(t *testing.T) {
	r := New("coord", -1, 2)
	r.Record(KindBarrier, "", 1<<40, -1<<40, math.MaxInt, "")
	ev := r.Dump(ReasonFinish).Events[0]
	if ev.Round != math.MaxInt32 || ev.Shard != math.MinInt32 || ev.Bytes != math.MaxInt32 {
		t.Errorf("event %+v, want round and bytes %d, shard %d", ev, math.MaxInt32, math.MinInt32)
	}
}
