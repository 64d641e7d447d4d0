package transport

// The TCP backend's merged observability document: one -obsout file per
// run joining the coordinator's flight recorder, every shard's flight
// recorder and wire tallies (TELEMETRY) and peer waits (FINAL), and the
// per-round skew — written on a clean finish and on every failure path
// (shard death, peer deadline, panic, SIGTERM). It bears wall clocks, so
// like a metrics snapshot (and unlike -trace files) it is host-dependent.
// cmd/obsreport joins it with a metrics snapshot and a benchmark document
// into a per-round report.

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
	"almostmix/internal/harness"
)

// ObsSchema identifies the -obsout document layout. Bump on any
// incompatible change so cmd/obsreport and the smoke suite can
// dispatch on it.
const ObsSchema = "almostmix-obs/v1"

// WireStats is one endpoint's wire tallies: the coordinator's side of one
// shard's link (Endpoint "coord"), the shard's own side of it (Endpoint
// "shard", from TELEMETRY; frame counts mirror the coord row's), or the
// sum of one shard's peer links (Endpoint "peer", from TELEMETRY too).
type WireStats struct {
	Endpoint   string           `json:"endpoint"`
	Shard      int              `json:"shard"`
	SentFrames int64            `json:"sent_frames"`
	RecvFrames int64            `json:"recv_frames"`
	SentBytes  int64            `json:"sent_bytes"`
	RecvBytes  int64            `json:"recv_bytes"`
	SentByType map[string]int64 `json:"sent_by_type,omitempty"`
	RecvByType map[string]int64 `json:"recv_by_type,omitempty"`
	Flushes    int64            `json:"flushes"`
	FlushNS    int64            `json:"flush_ns"`
	// Faults holds a shard row's fault-event totals at its owned nodes.
	Faults faults.Counts `json:"faults,omitempty"`
}

// RoundSkew is one round's cross-shard skew: the spread of the shards'
// peer waits. The slowest shard waits least, the others wait on it, so
// the spread is how far the straggler lagged.
type RoundSkew struct {
	Round  int   `json:"round"`
	SkewNS int64 `json:"skew_ns"`
}

// TimelineRow is the wall time one shard spent in one phase of one round:
// the coordinator's accept and spec phases (Round -1), then each executed
// round's peer-wait as the shard timed it (rounds the skip rule jumped have
// no row). Host-dependent, so never in a -trace
// export, which stays byte-identical across backends.
type TimelineRow struct {
	Round  int    `json:"round"`
	Shard  int    `json:"shard"`
	Phase  string `json:"phase"`
	WallNS int64  `json:"wall_ns"`
}

// ObsDoc is the merged per-run observability document.
type ObsDoc struct {
	Schema      string            `json:"schema"`
	Backend     string            `json:"backend"`
	Spec        Spec              `json:"spec"`
	Shards      int               `json:"shards"`
	Rounds      int               `json:"rounds"`
	Reason      string            `json:"reason"`
	GuiltyShard int               `json:"guilty_shard"`
	LastRound   int               `json:"last_round"`
	Phase       string            `json:"phase,omitempty"`
	Error       string            `json:"error,omitempty"`
	Coordinator flightrec.Dump    `json:"coordinator"`
	ShardDumps  []*flightrec.Dump `json:"shard_dumps"`
	Wire        []WireStats       `json:"wire"`
	Timeline    []TimelineRow     `json:"timeline"`
	Skew        []RoundSkew       `json:"skew"`
}

// ValidateObs checks the document against its schema contract: the
// stamp, a coordinator dump that itself validates, shard dump slots
// matching the shard count, and every present shard dump one that shard
// shipped (validShardDump). The smoke suite and cmd/obsreport both gate
// on it.
func ValidateObs(d *ObsDoc) error {
	if d == nil {
		return fmt.Errorf("transport: nil obs document")
	}
	if d.Schema != ObsSchema {
		return fmt.Errorf("transport: obs schema %q, want %q", d.Schema, ObsSchema)
	}
	if d.Backend != "tcp" {
		return fmt.Errorf("transport: obs backend %q, want tcp", d.Backend)
	}
	if d.Shards < 1 {
		return fmt.Errorf("transport: obs document with %d shards", d.Shards)
	}
	if len(d.ShardDumps) != d.Shards {
		return fmt.Errorf("transport: obs document has %d shard dump slots for %d shards", len(d.ShardDumps), d.Shards)
	}
	if err := flightrec.Validate(&d.Coordinator); err != nil {
		return fmt.Errorf("transport: obs coordinator dump: %w", err)
	}
	for i, sd := range d.ShardDumps {
		if sd == nil {
			continue // shard died before shipping telemetry
		}
		if err := validShardDump(i, sd); err != nil {
			return fmt.Errorf("transport: obs shard %d dump: %w", i, err)
		}
	}
	return nil
}

// validShardDump checks a dump shard i shipped in TELEMETRY: valid, its
// own (role shard, index i), taken at the finish and holding a frame it
// sent — FINAL, sent just before the dump is taken, is the last event.
func validShardDump(i int, d *flightrec.Dump) error {
	if err := flightrec.Validate(d); err != nil {
		return err
	}
	if d.Role != "shard" || d.Shard != i || d.Reason != flightrec.ReasonFinish {
		return fmt.Errorf("flight dump of %s %d, reason %s; want shard %d's at the finish", d.Role, d.Shard, d.Reason, i)
	}
	if !slices.ContainsFunc(d.Events, func(ev flightrec.Event) bool { return ev.Kind == flightrec.KindFrameSent }) {
		return fmt.Errorf("flight dump of shard %d shows no frame it sent", i)
	}
	return nil
}

// WriteJSON writes the document as one indented JSON document.
func (d *ObsDoc) WriteJSON(w io.Writer) error { return harness.WriteJSON(w, d) }

// WriteObs writes the document to path, wrapped-error discipline like
// every other exporter so cmd binaries can turn failures into exit 1.
func WriteObs(path string, d *ObsDoc) error {
	return harness.WriteFile(path, "transport: obs", d.WriteJSON)
}

// ReadObs parses one -obsout document and validates it.
func ReadObs(b []byte) (*ObsDoc, error) {
	var d ObsDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("transport: decoding obs document: %w", err)
	}
	if err := ValidateObs(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// wireStats converts one endpoint's connection tallies, keying the
// per-type counts by frame name (stable across builds, unlike the
// numeric type bytes).
func wireStats(endpoint string, shard int, t *connTally) WireStats {
	byName := func(counts *[frameTypeCount]int64) map[string]int64 {
		var m map[string]int64
		for typ, n := range counts {
			if n > 0 {
				if m == nil {
					m = make(map[string]int64)
				}
				m[frameName(byte(typ))] = n
			}
		}
		return m
	}
	return WireStats{
		Endpoint:   endpoint,
		Shard:      shard,
		SentFrames: t.sentFrames,
		RecvFrames: t.recvFrames,
		SentBytes:  t.sentBytes,
		RecvBytes:  t.recvBytes,
		SentByType: byName(&t.sentByType),
		RecvByType: byName(&t.recvByType),
		Flushes:    t.flushes,
		FlushNS:    t.flushNS,
	}
}
