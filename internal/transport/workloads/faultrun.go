package workloads

// The retry drivers for the fault-aware workloads — the only ones in the
// repo: tr.Run is the attempt executor, so in-process means
// transport.Proc, and running over TCP reproduces Proc bit for bit (the
// differential suite's fault legs assert it). The whole faulty execution
// is a pure function of (spec seeds, fault spec, fault seed) and
// identical across backends, engines and worker counts. The
// cross-attempt state travels in the Spec: the derived per-attempt fault
// seed in FaultSeed, the attempt index in Retry (offsetting the program
// RNG stream only), and for walks the re-issue counts and sequence bases
// in WalkCounts/WalkSeqBase.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"almostmix/internal/congest"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
)

// RunWalksFaults runs the walks-faults workload over tr for up to
// maxAttempts attempts (maxAttempts < 1 means 1), re-issuing tokens
// lost to faults: tokens are identified by (origin, sequence), an
// attempt runs until the network falls silent (the silence timeout:
// with the fault layer's quiet rules, silence means no token is in
// flight or delayed and no crashed node is due to recover), and every
// issued token not absorbed by then is a casualty of a drop / sever /
// crash and is re-issued from its origin with a fresh sequence number.
// An empty FaultSpec reduces to one plain attempt with retry accounting
// around it. Spec's Workload/Retry/WalkCounts/WalkSeqBase fields are
// owned by the driver and overwritten; FaultSeed seeds the per-attempt
// derivation.
func RunWalksFaults(tr transport.Transport, spec transport.Spec, opts transport.Options, maxAttempts int) (*randomwalk.FaultyWalkResult, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	counts, err := faultyWalkCounts(spec, g)
	if err != nil {
		return nil, err
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	faultSrc := rngutil.NewSource(spec.FaultSeed)

	res := &randomwalk.FaultyWalkResult{}
	res.ArrivedAt = make([]int, g.N())

	// outstanding tracks every issued-but-unabsorbed token; issue[v] and
	// seqBase[v] describe the tokens node v injects on the next attempt,
	// shipped through the spec.
	outstanding := make(map[randomwalk.WalkTokenID]struct{})
	nextSeq := make([]int, g.N())
	issue := make([]int, g.N())
	for v, c := range counts {
		issue[v] = c
		for s := 0; s < c; s++ {
			outstanding[randomwalk.WalkTokenID{Origin: int32(v), Seq: int32(s)}] = struct{}{}
		}
		nextSeq[v] = c
	}

	for attempt := 0; attempt < maxAttempts && len(outstanding) > 0; attempt++ {
		seqBase := make([]int, g.N())
		for v := range issue {
			seqBase[v] = nextSeq[v] - issue[v]
		}
		aspec := spec
		aspec.Workload = "walks-faults"
		aspec.FaultSeed = faultSrc.Derive("attempt", uint64(attempt))
		aspec.Retry = attempt
		aspec.WalkCounts = append([]int(nil), issue...)
		aspec.WalkSeqBase = seqBase
		run, err := tr.Run(aspec, opts)
		if err != nil {
			return nil, fmt.Errorf("workloads: walks-faults attempt %d: %w", attempt, err)
		}
		out, ok := run.Output.(WalksFaultsOutput)
		if !ok {
			return nil, fmt.Errorf("workloads: walks-faults attempt %d returned %T", attempt, run.Output)
		}
		res.Rounds += run.Rounds
		res.Messages += run.Messages
		res.Faults.Add(run.Faults)
		res.Attempts++

		// Reconcile: first absorption of an outstanding token counts;
		// duplicate arrivals of already-settled tokens are ignored.
		for v, ids := range out.Absorbed {
			for _, id := range ids {
				if _, open := outstanding[id]; open {
					delete(outstanding, id)
					res.ArrivedAt[v]++
				}
			}
		}
		// Whatever is still outstanding was lost: re-issue it from its
		// origin on the next attempt. The lost IDs are retired and fresh
		// sequence numbers minted, so a straggling duplicate of a lost
		// token can never masquerade as its replacement.
		for v := range issue {
			issue[v] = 0
		}
		for id := range outstanding {
			issue[id.Origin]++
		}
		if len(outstanding) == 0 || attempt+1 == maxAttempts {
			continue // loop condition ends the run; Lost reads outstanding
		}
		fresh := make(map[randomwalk.WalkTokenID]struct{}, len(outstanding))
		for v, c := range issue {
			for s := 0; s < c; s++ {
				fresh[randomwalk.WalkTokenID{Origin: int32(v), Seq: int32(nextSeq[v] + s)}] = struct{}{}
			}
			nextSeq[v] += c
		}
		res.Reissued += len(outstanding)
		outstanding = fresh
	}
	res.Lost = len(outstanding)
	return res, nil
}

// RunGHSFaults runs the ghs workload over tr for up to
// maxAttempts attempts (maxAttempts < 1 means 1). The node program's
// defensive machinery (mstbase/ghsnet.go) makes a faulted window stall
// and retry rather than commit a corrupt choice, so most fault patterns
// heal in-run; the driver adds the outer story: each attempt's merged
// edge set is validated against Kruskal, the independent centralized
// oracle (weights are distinct, so the MST is unique; a disconnected
// graph is refused by the workload itself, on the first attempt), a
// round-limited attempt is still checked (its harvest may hold the MST),
// and an attempt that stalled or — in rare multi-fault corners the
// in-protocol repair cannot untangle — produced a non-MST edge set reruns
// from scratch with a derived fault seed and a Retry-offset program RNG.
// Spec's Workload/Retry fields are owned by the driver; FaultSeed seeds
// the per-attempt derivation.
func RunGHSFaults(tr transport.Transport, spec transport.Spec, opts transport.Options, maxAttempts int) (*mstbase.FaultyMSTResult, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	want, _ := mstbase.Kruskal(g)
	sort.Ints(want)

	faultSrc := rngutil.NewSource(spec.FaultSeed)
	res := &mstbase.FaultyMSTResult{}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		aspec := spec
		aspec.Workload = "ghs"
		aspec.FaultSeed = faultSrc.Derive("attempt", uint64(attempt))
		aspec.Retry = attempt
		run, rerr := tr.Run(aspec, opts)
		// A round-limited attempt is not necessarily a failure: when the
		// "none" decision is partially dropped, some nodes halt while the
		// rest stall against their silence — with the MST already chosen.
		// The backends harvest it (partial output and totals included) and
		// the oracle check, not the error, decides. Anything else is fatal.
		if rerr != nil && !errors.Is(rerr, congest.ErrRoundLimit) {
			return nil, fmt.Errorf("workloads: ghs attempt %d: %w", attempt, rerr)
		}
		out, ok := run.Output.(MSTOutput)
		if !ok {
			return nil, fmt.Errorf("workloads: ghs attempt %d returned %T", attempt, run.Output)
		}
		res.Rounds += run.Rounds
		res.Iterations += mstbase.GHSIterations(g.N(), run.Rounds)
		res.Faults.Add(run.Faults)
		res.Attempts++

		got := append([]int(nil), out.Edges...)
		sort.Ints(got)
		if slices.Equal(got, want) {
			res.Recovered = true
			res.Edges = got
			res.Weight = g.TotalWeight(got)
			return res, nil
		}
	}
	return res, nil
}

// CrashShardSpec builds a fault-spec clause crashing every node of
// shard i (of shards over n nodes) at round at, recovering after dur
// rounds — the "kill a whole shard and let it come back" scenario the
// TCP fault suite runs end-to-end. Compose with other clauses by
// joining with commas.
func CrashShardSpec(n, shards, i, at, dur int) string {
	lo, hi := congest.Split{N: n, K: shards}.Bounds(i) // the TCP backend's shard layout
	spec := ""
	for v := lo; v < hi; v++ {
		if spec != "" {
			spec += ","
		}
		spec += fmt.Sprintf("crash=%d@%d+%d", v, at, dur)
	}
	return spec
}
