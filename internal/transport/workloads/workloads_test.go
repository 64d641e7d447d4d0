package workloads_test

// Direct tests of the registered workloads' harvest path: a node's record
// must not care which process harvests it, and Reduce — whose records may
// have crossed the wire, where the codec guarantees well-formed words and
// nothing about what they say — must answer every wrong record set with
// an error, never a panic or a silently wrong value.

import (
	"fmt"
	"reflect"
	"slices"
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
	{Workload: "ghs", Graph: "rr", N: 24, D: 4, Seed: 1, SrcSeed: 71, WeightSeed: 8,
		FaultSpec: "drop=0.01", FaultSeed: 3},
}

// ranInstance builds spec's instance and runs it to completion on the
// sequential engine, leaving the programs holding the outcome Harvest
// records.
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

// harvest collects the records of every node, each into its own slice.
func harvest(inst *transport.Instance) [][]uint64 {
	perNode := make([][]uint64, inst.Graph.N())
	for v := range perNode {
		perNode[v] = inst.Harvest(nil, v)
	}
	return perNode
}

// reduce calls inst.Reduce, converting a panic into a test failure so one
// bad check does not take the other cases down with it.
func reduce(t *testing.T, inst *transport.Instance, perNode [][]uint64) (out any, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("Reduce panicked on %v: %v", perNode, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return inst.Reduce(inst.Graph, perNode)
}

// TestHarvestIndependentOfSharding: a node's record does not depend on
// what was harvested into the buffer before it — which is all that cutting
// the node range into shards changes — and every workload but the ticker
// has a harvest path that reduces.
func TestHarvestIndependentOfSharding(t *testing.T) {
	for _, spec := range workloadSpecs {
		inst := ranInstance(t, spec)
		if inst.Harvest == nil || inst.Reduce == nil {
			if spec.Workload != "ticker" {
				t.Errorf("%s: no harvest path", spec.Workload)
			}
			continue
		}
		alone := harvest(inst)
		want, err := reduce(t, inst, alone)
		if err != nil {
			t.Fatalf("%s: reduce: %v", spec.Workload, err)
		}
		n := inst.Graph.N()
		for _, k := range []int{1, 2, 3} {
			var perNode [][]uint64
			for i := 0; i < k; i++ {
				var buf []uint64 // one shared buffer per shard, as a backend harvests
				lo, hi := congest.Split{N: n, K: k}.Bounds(i)
				for v := lo; v < hi; v++ {
					start := len(buf)
					buf = inst.Harvest(buf, v)
					perNode = append(perNode, buf[start:])
				}
			}
			if !slices.EqualFunc(perNode, alone, slices.Equal[[]uint64]) {
				t.Errorf("%s: records harvested in %d shards differ from node-by-node", spec.Workload, k)
			}
			if got, err := reduce(t, inst, perNode); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d-shard reduce = %+v, %v; want %+v", spec.Workload, k, got, err, want)
			}
		}
	}
}

// TestReduceRejectsWrongRecords feeds every Reduce the ways a record set
// can be wrong once the codec has vouched for its form — too few or too
// many records, records of the wrong length, values that index nothing —
// and demands an error each time.
func TestReduceRejectsWrongRecords(t *testing.T) {
	type edit = func(perNode [][]uint64) [][]uint64
	common := map[string]edit{
		"no records":      func([][]uint64) [][]uint64 { return nil },
		"records for n-1": func(p [][]uint64) [][]uint64 { return p[:len(p)-1] },
		"records for n+1": func(p [][]uint64) [][]uint64 { return append(p, p[0]) },
	}
	scalar := map[string]edit{
		"empty record":    func(p [][]uint64) [][]uint64 { p[3] = nil; return p },
		"two-word record": func(p [][]uint64) [][]uint64 { p[3] = []uint64{1, 1}; return p },
	}
	cases := map[string]map[string]edit{
		"bfs":   scalar,
		"walks": scalar,
		"broadcast": {
			"empty record":    scalar["empty record"],
			"two-word record": scalar["two-word record"],
			"flag beyond 1":   func(p [][]uint64) [][]uint64 { p[3] = []uint64{2}; return p },
		},
		"ghs": {},
		"walks-faults": {
			"odd-length record":    func(p [][]uint64) [][]uint64 { p[3] = []uint64{0, 0, 0}; return p },
			"origin beyond n":      func(p [][]uint64) [][]uint64 { p[3] = []uint64{uint64(len(p)), 0}; return p },
			"origin beyond an int": func(p [][]uint64) [][]uint64 { p[3] = []uint64{1 << 63, 0}; return p },
			"seq beyond int32":     func(p [][]uint64) [][]uint64 { p[3] = []uint64{0, 1 << 31}; return p },
		},
	}
	for _, spec := range workloadSpecs {
		bad, ok := cases[spec.Workload]
		if !ok {
			continue // ticker: nothing to reduce
		}
		inst := ranInstance(t, spec)
		for _, set := range []map[string]edit{common, bad} {
			for name, mutate := range set {
				perNode := mutate(harvest(inst))
				if out, err := reduce(t, inst, perNode); err == nil {
					t.Errorf("%s: %s: Reduce accepted it as %+v", spec.Workload, name, out)
				}
			}
		}
	}
}

// TestGHSReduceRejectsOutOfRangeEdgeID: an edge id off the end of the
// graph — including one too large for an int — must come back as an error
// naming the id and the edge count, not as an index panic in TotalWeight.
func TestGHSReduceRejectsOutOfRangeEdgeID(t *testing.T) {
	inst := ranInstance(t, workloadSpecs[3])
	m := inst.Graph.M()
	for _, id := range []uint64{uint64(m), uint64(m) + 7, 1 << 63} {
		perNode := harvest(inst)
		perNode[0] = append(perNode[0], id)
		_, err := reduce(t, inst, perNode)
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
