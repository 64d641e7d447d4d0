package workloads_test

// Direct tests of the registered workloads' harvest path: Finish/Merge
// must not care how the node range is cut into shards, and Merge — which
// parses bytes that crossed the wire — must answer every malformed blob
// with an error, never a panic or a silently wrong value.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/transport"
)

// workloadSpecs is one small spec per registered workload.
var workloadSpecs = []transport.Spec{
	{Workload: "ticker", Graph: "ring", N: 12, Steps: 5, SrcSeed: 91},
	{Workload: "bfs", Graph: "rr", N: 32, D: 4, Root: 3, Seed: 1, SrcSeed: 51},
	{Workload: "broadcast", Graph: "ringlattice", N: 24, D: 2, Root: 5, Value: 42, SrcSeed: 61},
	{Workload: "ghs", Graph: "rr", N: 24, D: 4, Seed: 1, SrcSeed: 71, WeightSeed: 8},
	{Workload: "walks", Graph: "rr", N: 32, D: 4, K: 1, Steps: 8, Seed: 1, SrcSeed: 81},
	{Workload: "walks-faults", Graph: "rr", N: 32, D: 4, K: 1, Steps: 8, Seed: 1, SrcSeed: 81,
		FaultSpec: "drop=0.05,dup=0.05", FaultSeed: 3},
	{Workload: "ghs-faults", Graph: "rr", N: 24, D: 4, Seed: 1, SrcSeed: 71, WeightSeed: 8,
		FaultSpec: "drop=0.01", FaultSeed: 3},
}

// ranInstance builds spec's instance and runs it to completion on the
// sequential engine, leaving the programs holding the outcome Finish
// serializes.
func ranInstance(t *testing.T, spec transport.Spec) *transport.Instance {
	t.Helper()
	wl, err := transport.Lookup(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	net := congest.NewNetwork(inst.Graph, inst.Programs, inst.Source).
		Configure(congest.Options{Workers: 1, Faults: inst.Faults})
	if inst.Quiet {
		_, err = net.RunUntilQuiet(inst.MaxRounds)
	} else {
		_, err = net.Run(inst.MaxRounds)
	}
	if err != nil {
		t.Fatalf("%s: %v", spec.Workload, err)
	}
	return inst
}

// merge calls inst.Merge, converting a panic into a test failure so one
// bad parser does not take the other cases down with it.
func merge(t *testing.T, inst *transport.Instance, parts [][]byte) (out any, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("Merge panicked on %x: %v", parts, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return inst.Merge(inst.Graph, parts)
}

// TestFinishMergeIndependentOfSharding: harvesting the node range in 1,
// 2 or 3 contiguous parts merges to the same output.
func TestFinishMergeIndependentOfSharding(t *testing.T) {
	for _, spec := range workloadSpecs {
		inst := ranInstance(t, spec)
		if inst.Finish == nil || inst.Merge == nil {
			if spec.Workload != "ticker" {
				t.Errorf("%s: no harvest path", spec.Workload)
			}
			continue
		}
		n := inst.Graph.N()
		want, err := merge(t, inst, [][]byte{inst.Finish(0, n)})
		if err != nil {
			t.Fatalf("%s: single-part merge: %v", spec.Workload, err)
		}
		for _, k := range []int{2, 3} {
			parts := make([][]byte, k)
			for i := range parts {
				parts[i] = inst.Finish(i*n/k, (i+1)*n/k)
			}
			got, err := merge(t, inst, parts)
			if err != nil {
				t.Fatalf("%s: %d-part merge: %v", spec.Workload, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d-part merge %+v, single-part %+v", spec.Workload, k, got, want)
			}
		}
	}
}

// uv encodes vals as concatenated uvarints.
func uv(vals ...uint64) []byte {
	var buf []byte
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// repeat returns count copies of v, for per-node record streams.
func repeat(v uint64, count int) []uint64 {
	vals := make([]uint64, count)
	for i := range vals {
		vals[i] = v
	}
	return vals
}

// TestMergeRejectsMalformedParts feeds every Merge the ways a harvest
// blob can be wrong — a truncated uvarint, trailing bytes, too few or too
// many records or values — and demands an error each time.
func TestMergeRejectsMalformedParts(t *testing.T) {
	truncated := []byte{0x80}                                // continuation bit, then nothing
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x7f) // more than 64 bits of uvarint
	cases := map[string]func(n int) map[string][][]byte{
		"bfs": func(n int) map[string][][]byte {
			return map[string][][]byte{
				"truncated uvarint":   {truncated},
				"too few records":     {uv(repeat(1, n-1)...)},
				"too many records":    {uv(repeat(1, n)...), uv(1)},
				"truncated last part": {uv(repeat(1, n-1)...), truncated},
			}
		},
		"broadcast": func(n int) map[string][][]byte {
			return map[string][][]byte{
				"truncated uvarint": {truncated},
				"trailing bytes":    {uv(3, 4)},
				"empty part":        {uv(3), nil},
				"uvarint overflow":  {overflow},
			}
		},
		"walks": func(n int) map[string][][]byte {
			return map[string][][]byte{
				"truncated uvarint": {truncated},
				"trailing bytes":    {uv(3), uv(4, 5)},
				"empty part":        {nil},
			}
		},
		"ghs": func(n int) map[string][][]byte {
			return map[string][][]byte{
				"truncated count":          {truncated},
				"truncated edge id":        {uv(2, 0)},
				"trailing bytes":           {uv(1, 0, 0)},
				"empty part":               {uv(1, 0), nil},
				"edge id uvarint overflow": {append(uv(1), overflow...)},
			}
		},
		"walks-faults": func(n int) map[string][][]byte {
			return map[string][][]byte{
				"truncated count":        {truncated},
				"truncated token":        {uv(1, 0)},
				"records for n-1 nodes":  {uv(repeat(0, n-1)...)},
				"records beyond n nodes": {uv(repeat(0, n)...), uv(0)},
				"count beyond the blob":  {uv(repeat(0, n-1)...), uv(2, 0, 0)},
			}
		},
	}
	cases["ghs-faults"] = cases["ghs"]
	for _, spec := range workloadSpecs {
		bad, ok := cases[spec.Workload]
		if !ok {
			continue // ticker: nothing to merge
		}
		inst := ranInstance(t, spec)
		for name, parts := range bad(inst.Graph.N()) {
			if out, err := merge(t, inst, parts); err == nil {
				t.Errorf("%s: %s: Merge accepted %x as %+v", spec.Workload, name, parts, out)
			}
		}
	}
}

// TestGHSMergeRejectsOutOfRangeEdgeID: an edge id off the end of the
// graph — including one too large for an int — must come back as an error
// naming the id and the edge count, not as an index panic in TotalWeight.
func TestGHSMergeRejectsOutOfRangeEdgeID(t *testing.T) {
	inst := ranInstance(t, workloadSpecs[3])
	m := inst.Graph.M()
	for _, id := range []uint64{uint64(m), uint64(m) + 7, 1 << 63} {
		_, err := merge(t, inst, [][]byte{uv(1, id)})
		if err == nil {
			t.Fatalf("edge id %d of %d edges accepted", id, m)
		}
		for _, want := range []string{fmt.Sprint(id), fmt.Sprint(m)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("edge id %d: error %q does not name %s", id, err, want)
			}
		}
	}
}

// TestWalksFaultsRejectsMisSizedReissueState: walk_counts and
// walk_seq_base arrive in the spec (over the wire, on a shard) and must
// be sized to the graph.
func TestWalksFaultsRejectsMisSizedReissueState(t *testing.T) {
	wl, err := transport.Lookup("walks-faults")
	if err != nil {
		t.Fatal(err)
	}
	base := transport.Spec{Workload: "walks-faults", Graph: "ring", N: 8, K: 1, Steps: 4, SrcSeed: 1}
	for name, mutate := range map[string]func(*transport.Spec){
		"short walk_counts":   func(s *transport.Spec) { s.WalkCounts = make([]int, 7) },
		"long walk_counts":    func(s *transport.Spec) { s.WalkCounts = make([]int, 9) },
		"short walk_seq_base": func(s *transport.Spec) { s.WalkSeqBase = make([]int, 7) },
		"long walk_seq_base":  func(s *transport.Spec) { s.WalkCounts = make([]int, 8); s.WalkSeqBase = make([]int, 9) },
	} {
		spec := base
		mutate(&spec)
		if _, err := wl.Build(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := wl.Build(base); err != nil {
		t.Errorf("well-formed spec rejected: %v", err)
	}
}
