package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
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
