package workloads_test

// Tests of the retry drivers over the in-process backend, on both engines
// and several worker counts: an empty fault spec must reduce to the plain
// fault-free run, lossy plans must be recovered from — every token landed,
// the exact MST (validated against Kruskal) produced — deterministically
// and bit-identically across worker counts, and an exhausted attempt
// budget must be reported honestly. The tcp legs of the same stories live
// in internal/transport's fault suite.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// procWorkers are the engine settings every driver test runs under: the
// sequential reference first, then the sharded engine.
var procWorkers = []int{1, 2, 8}

func buildGraph(t *testing.T, spec transport.Spec) *graph.Graph {
	t.Helper()
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runWalksFaults(t *testing.T, workers int, spec transport.Spec, attempts int) *randomwalk.FaultyWalkResult {
	t.Helper()
	res, err := workloads.RunWalksFaults(transport.Proc{Workers: workers}, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	return res
}

func runGHSFaults(t *testing.T, workers int, spec transport.Spec, attempts int) *mstbase.FaultyMSTResult {
	t.Helper()
	res, err := workloads.RunGHSFaults(transport.Proc{Workers: workers}, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatalf("%s workers %d: %v", spec.FaultSpec, workers, err)
	}
	return res
}

// TestRunWalksFaultsEmptySpec: with no fault spec, RunWalksFaults is
// randomwalk.RunNetwork plus inert accounting — same arrivals, rounds,
// messages, one attempt, nothing re-issued or lost.
func TestRunWalksFaultsEmptySpec(t *testing.T) {
	spec := transport.Spec{Graph: "rr", N: 48, D: 4, K: 1, Steps: 8, Seed: 21, SrcSeed: 21, FaultSeed: 7}
	g := buildGraph(t, spec)
	plain, err := randomwalk.RunNetwork(g, randomwalk.UniformCountTimesDegree(g, spec.K), spec.Steps,
		rngutil.NewSource(spec.SrcSeed), congest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range procWorkers {
		faulty := runWalksFaults(t, workers, spec, 3)
		if !reflect.DeepEqual(faulty.ArrivedAt, plain.ArrivedAt) {
			t.Errorf("workers %d: arrivals differ from fault-free run", workers)
		}
		if faulty.Rounds != plain.Rounds || faulty.Messages != plain.Messages {
			t.Errorf("workers %d: rounds/messages %d/%d, want %d/%d",
				workers, faulty.Rounds, faulty.Messages, plain.Rounds, plain.Messages)
		}
		if faulty.Attempts != 1 || faulty.Reissued != 0 || faulty.Lost != 0 {
			t.Errorf("workers %d: attempts/reissued/lost = %d/%d/%d, want 1/0/0",
				workers, faulty.Attempts, faulty.Reissued, faulty.Lost)
		}
		if faulty.Faults != (faults.Counts{}) {
			t.Errorf("workers %d: fault counts %+v on empty plan", workers, faulty.Faults)
		}
	}
}

// TestRunWalksFaultsRecoversTokens: under a genuinely lossy plan the
// retry loop must eventually land every token (total arrivals = total
// issued, Lost = 0), re-issuing at least one along the way, and the whole
// execution — arrivals, rounds, messages, attempts, fault totals — must be
// bit-identical across worker counts.
func TestRunWalksFaultsRecoversTokens(t *testing.T) {
	spec := transport.Spec{
		Graph: "rr", N: 32, D: 4, K: 1, Steps: 10, Seed: 5, SrcSeed: 5,
		FaultSpec: "drop=0.08,dup=0.05,delay=0.08:2", FaultSeed: 11,
	}
	const attempts = 12
	want := runWalksFaults(t, 1, spec, attempts)

	g := buildGraph(t, spec)
	issued := 0
	for _, c := range randomwalk.UniformCountTimesDegree(g, spec.K) {
		issued += c
	}
	got := 0
	for _, c := range want.ArrivedAt {
		got += c
	}
	if got != issued || want.Lost != 0 {
		t.Fatalf("recovered %d of %d tokens, lost %d — retry loop failed", got, issued, want.Lost)
	}
	if want.Faults.Dropped == 0 {
		t.Fatalf("no drops injected; test exercises nothing (faults %+v)", want.Faults)
	}
	if want.Reissued == 0 || want.Attempts < 2 {
		t.Fatalf("attempts %d, reissued %d — expected at least one retry under drops",
			want.Attempts, want.Reissued)
	}
	for _, workers := range procWorkers[1:] {
		if res := runWalksFaults(t, workers, spec, attempts); !reflect.DeepEqual(res, want) {
			t.Errorf("workers %d: result diverges from sequential\n got %+v\nwant %+v",
				workers, res, want)
		}
	}
}

// TestRunWalksFaultsExhaustsAttempts: with total loss and a capped
// attempt budget, the driver must stop at the cap and report everything
// still outstanding as lost rather than spinning.
func TestRunWalksFaultsExhaustsAttempts(t *testing.T) {
	spec := transport.Spec{
		Graph: "ring", N: 4, Steps: 3, SrcSeed: 1, WalkCounts: []int{2, 0, 0, 0},
		FaultSpec: "drop=1.0", FaultSeed: 3,
	}
	for _, workers := range procWorkers {
		res := runWalksFaults(t, workers, spec, 4)
		if res.Attempts != 4 {
			t.Errorf("workers %d: attempts %d, want the full budget 4", workers, res.Attempts)
		}
		if res.Lost != 2 {
			t.Errorf("workers %d: lost %d tokens, want all 2", workers, res.Lost)
		}
		if res.Reissued != 6 {
			t.Errorf("workers %d: reissued %d, want 2 per non-final attempt = 6", workers, res.Reissued)
		}
		for v, c := range res.ArrivedAt {
			if c != 0 {
				t.Errorf("workers %d: node %d absorbed %d tokens under total loss", workers, v, c)
			}
		}
	}
}

// ghsFaultSpec is the 24-node weighted expander the GHS driver tests run
// on; seed picks the graph, the weights and the program RNG stream.
func ghsFaultSpec(seed uint64, faultSpec string, faultSeed uint64) transport.Spec {
	return transport.Spec{
		Graph: "rr", N: 24, D: 4, Seed: seed, SrcSeed: seed, WeightSeed: seed + 1000,
		FaultSpec: faultSpec, FaultSeed: faultSeed,
	}
}

// TestRunGHSFaultsEmptySpec: with no fault spec, RunGHSFaults is
// mstbase.GHSNetwork plus inert accounting — same tree, rounds, one
// attempt.
func TestRunGHSFaultsEmptySpec(t *testing.T) {
	spec := ghsFaultSpec(3, "", 7)
	plain, err := mstbase.GHSNetwork(buildGraph(t, spec), rngutil.NewSource(spec.SrcSeed), congest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plainEdges := append([]int(nil), plain.Edges...)
	sort.Ints(plainEdges)

	for _, workers := range procWorkers {
		res := runGHSFaults(t, workers, spec, 3)
		if !res.Recovered || res.Attempts != 1 {
			t.Fatalf("workers %d: recovered=%v attempts=%d, want true/1", workers, res.Recovered, res.Attempts)
		}
		if res.Rounds != plain.Rounds || res.Iterations != plain.Iterations || res.Weight != plain.Weight ||
			!reflect.DeepEqual(res.Edges, plainEdges) {
			t.Errorf("workers %d: (rounds=%d weight=%v) differs from fault-free (rounds=%d weight=%v)",
				workers, res.Rounds, res.Weight, plain.Rounds, plain.Weight)
		}
	}
}

// TestRunGHSFaultsConvergesToMST: under drops, duplication and delays the
// faulty execution must still land the exact MST, and the whole result —
// rounds, attempts, fault totals, tree — must be bit-identical across
// worker counts.
func TestRunGHSFaultsConvergesToMST(t *testing.T) {
	for _, faultSpec := range []string{
		"drop=0.02",
		"drop=0.03,dup=0.03,delay=0.03:2",
	} {
		spec := ghsFaultSpec(11, faultSpec, 5)
		_, wantWeight := mstbase.Kruskal(buildGraph(t, spec))
		const attempts = 8
		want := runGHSFaults(t, 1, spec, attempts)
		if !want.Recovered {
			t.Fatalf("%s: did not recover the MST in %d attempts (faults %+v)",
				faultSpec, want.Attempts, want.Faults)
		}
		if want.Weight != wantWeight {
			t.Fatalf("%s: recovered weight %v, Kruskal %v", faultSpec, want.Weight, wantWeight)
		}
		if want.Faults == (faults.Counts{}) {
			t.Fatalf("%s: no faults injected; test exercises nothing", faultSpec)
		}
		for _, workers := range procWorkers[1:] {
			if got := runGHSFaults(t, workers, spec, attempts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers %d: result diverges from sequential\n got %+v\nwant %+v",
					faultSpec, workers, got, want)
			}
		}
	}
}

// TestRunGHSFaultsCoordinatorCrash: crashing nodes mid-run — including
// stretches long enough to take out a fragment coordinator across a
// window boundary — must be survivable: the affected windows stall and
// retry after recovery, and the run still produces the exact MST.
func TestRunGHSFaultsCoordinatorCrash(t *testing.T) {
	// Node 23 is the largest ID, hence the root of whatever fragment it
	// merges into; knock it out across two window boundaries (a window is
	// 3n+6 rounds).
	const w = 3*24 + 6
	spec := ghsFaultSpec(29, fmt.Sprintf("crash=23@2+%d,crash=5@%d+%d", 2*w, w+3, w), 13)
	_, wantWeight := mstbase.Kruskal(buildGraph(t, spec))
	const attempts = 8
	want := runGHSFaults(t, 1, spec, attempts)
	if !want.Recovered || want.Weight != wantWeight {
		t.Fatalf("crash run: recovered=%v weight=%v (want %v) after %d attempts, faults %+v",
			want.Recovered, want.Weight, wantWeight, want.Attempts, want.Faults)
	}
	if want.Faults.Crashed == 0 {
		t.Fatal("no crash rounds recorded; spec exercised nothing")
	}
	for _, workers := range procWorkers[1:] {
		if got := runGHSFaults(t, workers, spec, attempts); !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: result diverges from sequential", workers)
		}
	}
}

// TestRunGHSFaultsUnrecoverable: a permanently severed link starves the
// fragment-ID exchange forever; every attempt must burn its budget and
// the driver must report the failure honestly instead of fabricating a
// tree.
func TestRunGHSFaultsUnrecoverable(t *testing.T) {
	res := runGHSFaults(t, 1, ghsFaultSpec(7, "sever=0@1", 3), 2)
	if res.Recovered {
		t.Fatal("recovered an MST with a permanently severed edge starving the exchange")
	}
	if res.Attempts != 2 {
		t.Errorf("attempts %d, want the full budget 2", res.Attempts)
	}
	if len(res.Edges) != 0 || res.Weight != 0 {
		t.Errorf("unrecovered result carries edges/weight: %v/%v", res.Edges, res.Weight)
	}
}
