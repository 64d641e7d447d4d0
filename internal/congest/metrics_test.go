package congest

import (
	"fmt"
	"strings"
	"testing"

	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

// chatter broadcasts for a fixed number of rounds, then halts — a
// deterministic message-heavy workload for the metrics layer.
type chatter struct{ left int }

func (p *chatter) Init(ctx *Ctx) { ctx.Broadcast(ping) }

func (p *chatter) Step(ctx *Ctx, inbox []Inbound) {
	p.left--
	if p.left <= 0 {
		ctx.Halt()
		return
	}
	ctx.Broadcast(ping)
}

// TestMetricsDeterministicAcrossWorkers: the deterministic instruments
// (runs, rounds, messages) must merge to bit-identical values for worker
// counts 1, 2 and 8 — the registry-side mirror of the engines'
// bit-identical-execution guarantee — while the wall-time instruments
// must be present and plausible on every engine.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	g := graph.RandomRegular(64, 4, rngutil.NewRand(9))
	type fixed struct {
		rounds, runs, delivered int64
	}
	var want *fixed
	for _, workers := range []int{1, 2, 8} {
		reg := metrics.New()
		net := NewUniformNetwork(g, func(int) Program { return &chatter{left: 10} },
			rngutil.NewSource(5)).SetWorkers(workers).SetMetrics(reg)
		rounds, err := net.Run(64)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := reg.Snapshot()
		read := func(name string) int64 {
			v, ok := snap.Counter(name)
			if !ok {
				t.Fatalf("workers=%d: counter %s missing", workers, name)
			}
			return v
		}
		got := &fixed{
			rounds:    read("congest_rounds_total"),
			runs:      read("congest_runs_total"),
			delivered: read("congest_messages_delivered_total"),
		}
		if got.runs != 1 {
			t.Fatalf("workers=%d: runs=%d, want 1", workers, got.runs)
		}
		if got.rounds != int64(rounds) {
			t.Fatalf("workers=%d: counter rounds=%d, engine says %d", workers, got.rounds, rounds)
		}
		if want == nil {
			want = got
		} else if *got != *want {
			t.Fatalf("workers=%d: deterministic metrics diverged: %+v vs %+v", workers, got, want)
		}

		// Wall instruments: present, positive, and consistent in count.
		if v := read("congest_run_wall_ns_total"); v <= 0 {
			t.Fatalf("workers=%d: run wall %d", workers, v)
		}
		hist := snap.Histogram("congest_round_wall_ns")
		if hist == nil || hist.Count != int64(rounds) {
			t.Fatalf("workers=%d: round histogram %+v, want count %d", workers, hist, rounds)
		}
		if _, ok := snap.Gauge("congest_rounds_per_sec"); !ok {
			t.Fatalf("workers=%d: rounds/sec gauge missing", workers)
		}
		// Per-shard busy/idle instruments exist exactly on the parallel
		// engine, one pair per worker.
		for w := 0; w < workers; w++ {
			name := fmt.Sprintf("congest_worker_busy_ns_total{shard=%02d}", w)
			_, ok := snap.Counter(name)
			if workers == 1 && ok {
				t.Fatalf("sequential run exported %s", name)
			}
			if workers > 1 && !ok {
				t.Fatalf("workers=%d: %s missing", workers, name)
			}
		}
	}

	// The part count clamps to the node count, and the busy instruments
	// follow the parts that actually ran, not the Workers that were asked
	// for: one node is one inline part and exports none (this run used to
	// panic indexing the busy slots it never allocated), two nodes under
	// Workers: 8 are two parts.
	for _, tc := range []struct{ nodes, workers, busy int }{{1, 2, 0}, {2, 8, 2}} {
		reg := metrics.New()
		net := NewUniformNetwork(graph.Path(tc.nodes), func(int) Program { return &chatter{left: 4} },
			rngutil.NewSource(5)).Configure(Options{Workers: tc.workers, Metrics: reg})
		if _, err := net.Run(10); err != nil {
			t.Fatalf("nodes=%d workers=%d: %v", tc.nodes, tc.workers, err)
		}
		busy := 0
		for _, c := range reg.Snapshot().Counters {
			if strings.HasPrefix(c.Name, "congest_worker_busy_ns_total{shard=") {
				busy++
			}
		}
		if busy != tc.busy {
			t.Fatalf("nodes=%d workers=%d: %d busy counters, want %d", tc.nodes, tc.workers, busy, tc.busy)
		}
	}
}

// TestMetricsDetached: without a registry the network must not allocate
// metrics state, and a run behaves identically (the nil fast path).
func TestMetricsDetached(t *testing.T) {
	g := graph.Ring(16)
	net := NewUniformNetwork(g, func(int) Program { return &chatter{left: 4} },
		rngutil.NewSource(5))
	if _, err := net.Run(16); err != nil {
		t.Fatal(err)
	}
	if net.ms != nil {
		t.Fatal("metrics state allocated without a registry")
	}
}

// TestMetricsAccumulateAcrossRuns: one registry attached to several
// (single-use) networks accumulates counters across runs — the usage
// pattern of the cmd binaries, where one -metrics session spans every
// experiment instance.
func TestMetricsAccumulateAcrossRuns(t *testing.T) {
	g := graph.Ring(8)
	reg := metrics.New()
	var totalRounds int64
	for i := 0; i < 3; i++ {
		net := NewUniformNetwork(g, func(int) Program { return &chatter{left: 3} },
			rngutil.NewSource(uint64(i))).SetMetrics(reg)
		rounds, err := net.Run(16)
		if err != nil {
			t.Fatal(err)
		}
		totalRounds += int64(rounds)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("congest_runs_total"); v != 3 {
		t.Fatalf("runs=%d, want 3", v)
	}
	if v, _ := snap.Counter("congest_rounds_total"); v != totalRounds {
		t.Fatalf("rounds=%d, want %d", v, totalRounds)
	}
}
