package transport_test

// The fault-over-wire differential suite: faulty executions must be
// byte-identical between the in-process engines and the TCP backend.
// The tentpole assertion replays internal/congest's committed fault
// goldens (testdata/golden/faults-*.json) through the transport layer —
// proc and tcp at shards 1, 2 and 4 — and requires the full golden
// document (trace bytes, rounds, messages, fault totals) to reproduce
// byte for byte. On top sit the retry stories: walks re-issue and
// windowed-GHS recovery over real shard processes, including a
// whole-shard crash-and-recover round, each pinned against the same
// driver run in-process (transport.Proc). Nothing about the plan crosses
// the wire — every shard rebuilds it from the spec and rolls the fates of
// the messages it receives — and shards run as goroutines so that replay
// sits under the race detector.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// goldenFaultProgram replicates internal/congest's goldenProgram
// exactly (same RNG consumption, marks, staggered halting, per-port
// duplication guard), so a transport run of the "goldenfault" workload
// is the same execution the committed goldens pin.
// kindGoldenInt is the goldenfault workload's one message kind: the
// integer congest's goldenProgram sends rides in A.
const kindGoldenInt = congest.KindTest

func goldenInt(v int) congest.Message {
	return congest.Message{Kind: kindGoldenInt, A: int32(v)}
}

type goldenFaultProgram struct {
	haltAt int
	seen   int
	sent   []bool
}

func (p *goldenFaultProgram) Init(ctx *congest.Ctx) {
	p.sent = make([]bool, ctx.Degree())
	ctx.Broadcast(goldenInt(ctx.ID()))
}

func (p *goldenFaultProgram) Step(ctx *congest.Ctx, inbox []congest.Inbound) {
	for i := range p.sent {
		p.sent[i] = false
	}
	for _, in := range inbox {
		v := int(in.Payload.A)
		p.seen += v
		if ctx.Rand().IntN(4) != 0 && !p.sent[in.Port] {
			p.sent[in.Port] = true
			ctx.Send(int(in.Port), goldenInt(v+1))
		}
	}
	if ctx.Round()%3 == 0 && ctx.Tracing() {
		ctx.Mark(fmt.Sprintf("beat-%d", ctx.Round()/3))
	}
	if ctx.Round() >= p.haltAt {
		ctx.Halt()
	}
}

// goldenFaultScenarios mirror congest's golden fault scenarios; Value
// selects the graph in buildGoldenFault since Gnp is not a BuildGraph
// kind.
var goldenFaultScenarios = []struct {
	name      string
	value     int
	faultSpec string
}{
	{"faults-gnp24", 0, "drop=0.15,dup=0.1,delay=0.15:2,crash=3@4+5,sever=2@6"},
	{"faults-star16", 1, "drop=0.1,dup=0.2,delay=0.1:3,crash=0@5+4"},
	{"faults-rr32d4", 2, "drop=0.2,delay=0.2:1,sever=5@3,crash=7@2+6"},
}

func buildGoldenFault(spec transport.Spec) (*transport.Instance, error) {
	var g *graph.Graph
	switch spec.Value {
	case 0:
		g = graph.Gnp(24, 0.3, rngutil.NewRand(7))
	case 1:
		g = graph.Star(16)
	case 2:
		g = graph.RandomRegular(32, 4, rngutil.NewRand(9))
	default:
		return nil, fmt.Errorf("goldenfault: unknown scenario %d", spec.Value)
	}
	plan, err := spec.FaultPlan()
	if err != nil {
		return nil, err
	}
	programs := make([]congest.Program, g.N())
	for v := range programs {
		programs[v] = &goldenFaultProgram{haltAt: 12 + v%5}
	}
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    rngutil.NewSource(spec.SrcSeed),
		Faults:    plan,
		MaxRounds: 40,
	}, nil
}

func init() {
	transport.Register(transport.Workload{
		Name:    "goldenfault",
		Build:   buildGoldenFault,
		Layouts: []congest.Layout{{Kind: kindGoldenInt, A: congest.FieldUint31}},
	})
}

// goldenFaultDoc replicates congest's goldenDoc layout so the marshaled
// bytes can be compared against the committed files directly.
type goldenFaultDoc struct {
	Trace    json.RawMessage `json:"trace"`
	Rounds   int             `json:"rounds"`
	Messages int             `json:"messages"`
	Faults   faults.Counts   `json:"faults"`
}

// runGoldenFault executes one golden fault scenario on tr and returns
// the serialized golden document, built exactly like congest's
// runGolden.
func runGoldenFault(t *testing.T, tr transport.Transport, value int, faultSpec string) []byte {
	t.Helper()
	sink := congest.NewTraceSink()
	res, err := tr.Run(transport.Spec{
		Workload:  "goldenfault",
		Value:     value,
		SrcSeed:   41,
		FaultSpec: faultSpec,
		FaultSeed: 99,
	}, transport.Options{Probe: sink})
	if err != nil {
		t.Fatalf("%s run: %v", tr.Name(), err)
	}
	var trace bytes.Buffer
	if err := sink.WriteJSON(&trace); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	buf, err := json.MarshalIndent(goldenFaultDoc{
		Trace:    trace.Bytes(),
		Rounds:   res.Rounds,
		Messages: res.Messages,
		Faults:   res.Faults,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestGoldenFaultParityOverTCP is the tentpole assertion: the three
// committed fault goldens reproduce byte for byte through the transport
// layer — trace bytes, rounds, messages and fault totals — on proc and
// on tcp at shards 1, 2 and 4.
func TestGoldenFaultParityOverTCP(t *testing.T) {
	for _, sc := range goldenFaultScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "congest", "testdata", "golden", sc.name+".json"))
			if err != nil {
				t.Fatalf("missing congest golden: %v", err)
			}
			if got := runGoldenFault(t, transport.Proc{Workers: 1}, sc.value, sc.faultSpec); !bytes.Equal(got, want) {
				t.Fatalf("proc diverges from committed golden (%d vs %d bytes)", len(got), len(want))
			}
			for _, shards := range []int{1, 2, 4} {
				tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
				if got := runGoldenFault(t, tcp, sc.value, sc.faultSpec); !bytes.Equal(got, want) {
					t.Errorf("tcp shards=%d diverges from committed golden (%d vs %d bytes)", shards, len(got), len(want))
				}
			}
		})
	}
}

// TestCrossShardFaultCountsSumToProc pins the counted-exactly-once
// contract: a message crossing shards has its fate applied at the
// receiving shard's delivery scan, never where it is staged, so the per-shard
// totals shipped back in TELEMETRY frames sum to the sequential
// engine's totals field for field.
func TestCrossShardFaultCountsSumToProc(t *testing.T) {
	sc := goldenFaultScenarios[0] // gnp24: dense cross-shard traffic, all fate kinds
	spec := transport.Spec{
		Workload:  "goldenfault",
		Value:     sc.value,
		SrcSeed:   41,
		FaultSpec: sc.faultSpec,
		FaultSeed: 99,
	}
	procRes, err := transport.Proc{Workers: 1}.Run(spec, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !procRes.Faults.Any() {
		t.Fatal("proc run injected no faults; scenario is not exercising the counters")
	}
	for _, shards := range []int{2, 4} {
		out := filepath.Join(t.TempDir(), "obs.json")
		tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil), ObsOut: out}
		tcpRes, err := tcp.Run(spec, transport.Options{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if tcpRes.Faults != procRes.Faults {
			t.Errorf("shards=%d: coordinator totals %+v, proc %+v", shards, tcpRes.Faults, procRes.Faults)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := transport.ReadObs(raw)
		if err != nil {
			t.Fatal(err)
		}
		var sum faults.Counts
		rows := 0
		for _, ws := range doc.Wire {
			if ws.Endpoint == "shard" {
				sum.Add(ws.Faults)
				rows++
			} else if ws.Faults.Any() {
				t.Errorf("shards=%d: coord wire row for shard %d carries fault counts %+v", shards, ws.Shard, ws.Faults)
			}
		}
		if rows != shards {
			t.Fatalf("shards=%d: %d shard telemetry rows", shards, rows)
		}
		if sum != procRes.Faults {
			t.Errorf("shards=%d: per-shard fault totals sum to %+v, proc counted %+v — some fate applied twice or not at all",
				shards, sum, procRes.Faults)
		}
	}
}

// TestFaultPlanShapesTCPMatchProc runs the three plan shapes a replica
// must replay with no help from the coordinator — probabilistic rules
// only, crash/sever schedules only, and a non-nil plan with no effective
// rule — for more than 64 rounds, and requires trace bytes, rounds,
// messages, absorbed tokens and fault totals identical to the sequential
// engine at shards 1, 2 and 4. The crash and sever rules fire past round
// 64 so late-run schedule replay is exercised too.
func TestFaultPlanShapesTCPMatchProc(t *testing.T) {
	for _, sc := range []struct {
		name, faultSpec string
		wantFaults      bool
	}{
		{"probabilistic-only", "drop=0.01,dup=0.02,delay=0.05:2", true},
		{"crash-sever-only", "crash=5@70+6,sever=3@66", true},
		{"no-effective-rule", "drop=0", false},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			spec := transport.Spec{
				Workload: "walks-faults", Graph: "rr", N: 24, D: 4, K: 2, Steps: 80,
				Seed: 13, SrcSeed: 113,
				FaultSpec: sc.faultSpec, FaultSeed: 31,
			}
			want, wantRes := traceRun(t, transport.Proc{Workers: 1}, spec, sc.name)
			if wantRes.Rounds <= 64 {
				t.Fatalf("proc run ended after %d rounds, want > 64", wantRes.Rounds)
			}
			if wantRes.Faults.Any() != sc.wantFaults {
				t.Fatalf("proc run fault totals %+v, want any = %v", wantRes.Faults, sc.wantFaults)
			}
			for _, shards := range []int{1, 2, 4} {
				tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
				got, gotRes := traceRun(t, tcp, spec, sc.name)
				if !bytes.Equal(want, got) {
					t.Errorf("shards=%d: trace bytes diverge from the sequential engine (%d vs %d bytes)", shards, len(want), len(got))
				}
				sameResult(t, fmt.Sprintf("shards=%d", shards), wantRes, gotRes)
				if gotRes.Faults != wantRes.Faults {
					t.Errorf("shards=%d: fault totals %+v, proc %+v", shards, gotRes.Faults, wantRes.Faults)
				}
			}
		})
	}
}

// TestOutOfRangeFaultRulesRejected pins plan-vs-graph validation: a crash
// rule naming a node the graph does not have, or a sever rule naming an
// edge it does not have, is rejected with the same error — naming the
// clause and the bound — by both backends, before any round runs and
// before any shard is spawned. (Unchecked, the in-process engines counted
// the phantom node as crashed every round while sharded runs counted
// nothing.) The last node and edge stay valid.
func TestOutOfRangeFaultRulesRejected(t *testing.T) {
	base := transport.Spec{
		Workload: "walks-faults", Graph: "rr", N: 32, D: 4, K: 1, Steps: 8,
		Seed: 11, SrcSeed: 111, FaultSeed: 5,
	}
	noSpawn := func(shard int, addr string) (transport.ShardHandle, error) {
		t.Errorf("shard %d spawned for a spec that must be rejected up front", shard)
		return transport.ShardHandle{}, errors.New("unreachable")
	}
	for _, tc := range []struct{ faultSpec, want string }{
		{"crash=999@1,sever=5000@1", `faults: clause "crash=999@1": node 999 outside the graph's 32 nodes`},
		{"drop=0.1,crash=32@3+4", `faults: clause "crash=32@3+4": node 32 outside the graph's 32 nodes`},
		{"sever=64@2", `faults: clause "sever=64@2": edge 64 outside the graph's 64 edges`},
	} {
		spec := base
		spec.FaultSpec = tc.faultSpec
		_, procErr := transport.Proc{Workers: 1}.Run(spec, transport.Options{})
		if procErr == nil || procErr.Error() != tc.want {
			t.Errorf("%s: proc err = %v, want %q", tc.faultSpec, procErr, tc.want)
		}
		for _, shards := range []int{2, 4} {
			_, tcpErr := transport.TCP{Shards: shards, Timeout: 10 * time.Second, Spawn: noSpawn}.Run(spec, transport.Options{})
			if tcpErr == nil || tcpErr.Error() != tc.want {
				t.Errorf("%s: tcp shards=%d err = %v, want %q", tc.faultSpec, shards, tcpErr, tc.want)
			}
		}
	}
	spec := base
	spec.FaultSpec = "crash=31@3+2,sever=63@2"
	want, err := transport.Proc{Workers: 1}.Run(spec, transport.Options{})
	if err != nil {
		t.Fatalf("in-range rules rejected: %v", err)
	}
	got, err := transport.TCP{Shards: 2, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}.Run(spec, transport.Options{})
	if err != nil {
		t.Fatalf("in-range rules rejected over tcp: %v", err)
	}
	if got.Faults != want.Faults || want.Faults.Crashed != 2 {
		t.Errorf("in-range fault totals: proc %+v, tcp %+v, want 2 crashed node-rounds on both", want.Faults, got.Faults)
	}
}

// faultTCPs are the wire backends every retry-story test compares
// against the in-process run (transport.Proc{Workers: 1}) of the same
// spec.
func faultTCPs() []transport.Transport {
	return []transport.Transport{
		transport.TCP{Shards: 2, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)},
		transport.TCP{Shards: 4, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)},
	}
}

// arrivedTotal sums a walk result's per-node arrivals.
func arrivedTotal(res *randomwalk.FaultyWalkResult) int {
	total := 0
	for _, c := range res.ArrivedAt {
		total += c
	}
	return total
}

// issuedTokens is the number of tokens a k·deg walks spec issues.
func issuedTokens(t *testing.T, spec transport.Spec) int {
	t.Helper()
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	issued := 0
	for _, c := range randomwalk.UniformCountTimesDegree(g, spec.K) {
		issued += c
	}
	return issued
}

// TestWalksFaultsTCPMatchesProc pins the walks retry driver across
// backends: identical arrival placement, rounds, messages, attempts,
// re-issue and fault accounting in-process and over tcp, with token
// conservation as the independent check on the in-process run.
func TestWalksFaultsTCPMatchesProc(t *testing.T) {
	spec := transport.Spec{
		Workload: "walks-faults", Graph: "rr", N: 32, D: 4, K: 1, Steps: 8,
		Seed: 11, SrcSeed: 111,
		FaultSpec: "drop=0.08,dup=0.05,delay=0.1:2", FaultSeed: 5,
	}
	const attempts = 8
	want, err := workloads.RunWalksFaults(transport.Proc{Workers: 1}, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reissued == 0 {
		t.Fatal("proc run re-issued nothing; the scenario is not exercising the retry story")
	}
	if issued := issuedTokens(t, spec); want.Lost != 0 || arrivedTotal(want) != issued {
		t.Fatalf("proc run landed %d of %d tokens within %d attempts (lost %d)", arrivedTotal(want), issued, attempts, want.Lost)
	}
	for _, tr := range faultTCPs() {
		got, err := workloads.RunWalksFaults(tr, spec, transport.Options{}, attempts)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: faulty walk result diverges from proc:\nwant %+v\ngot  %+v", tr, want, got)
		}
	}
}

// TestGHSFaultsTCPMatchesProc pins the GHS retry driver across backends:
// the recovered MST (checked against Kruskal), the accumulated
// rounds/iterations/attempts and the fault totals must be identical
// in-process and over tcp.
func TestGHSFaultsTCPMatchesProc(t *testing.T) {
	spec := transport.Spec{
		Workload: "ghs", Graph: "rr", N: 24, D: 4,
		Seed: 3, SrcSeed: 73, WeightSeed: 10,
		FaultSpec: "drop=0.05,delay=0.1:2", FaultSeed: 9,
	}
	const attempts = 6
	want, err := workloads.RunGHSFaults(transport.Proc{Workers: 1}, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Recovered {
		t.Fatalf("proc run did not recover the MST within %d attempts", attempts)
	}
	if !want.Faults.Any() {
		t.Fatal("proc run injected no faults")
	}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, kruskal := mstbase.Kruskal(g); want.Weight != kruskal {
		t.Fatalf("proc run recovered weight %v, Kruskal %v", want.Weight, kruskal)
	}
	for _, tr := range faultTCPs() {
		got, err := workloads.RunGHSFaults(tr, spec, transport.Options{}, attempts)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: faulty GHS result diverges from proc:\nwant %+v\ngot  %+v", tr, want, got)
		}
	}
}

// TestWholeShardCrashRecoversOverTCP is the killed-and-recovering-shard
// story: every node of one shard crashes mid-run and recovers rounds
// later, with probabilistic drops layered on top, over real shard
// barriers. The run must complete with every token re-delivered and the
// crash accounted at exactly crashed-nodes × crashed-rounds, identical
// to the in-process run.
func TestWholeShardCrashRecoversOverTCP(t *testing.T) {
	const n, shards = 24, 4
	crashSpec := "drop=0.05," + workloads.CrashShardSpec(n, shards, 2, 3, 4)
	spec := transport.Spec{
		Workload: "walks-faults", Graph: "rr", N: n, D: 4, K: 1, Steps: 6,
		Seed: 21, SrcSeed: 121,
		FaultSpec: crashSpec, FaultSeed: 17,
	}
	// The crash schedule replays every attempt (each re-run crashes the
	// shard again at round 3), so re-issued tokens keep braving the same
	// window; 16 attempts deterministically drains this seed.
	const attempts = 16
	want, err := workloads.RunWalksFaults(transport.Proc{Workers: 1}, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatal(err)
	}
	tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
	got, err := workloads.RunWalksFaults(tcp, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("whole-shard crash walk result diverges from proc:\nwant %+v\ngot  %+v", want, got)
	}
	if got.Lost != 0 {
		t.Errorf("%d tokens lost across %d attempts", got.Lost, attempts)
	}
	if arrived, issued := arrivedTotal(got), issuedTokens(t, spec); arrived != issued {
		t.Errorf("%d of %d tokens arrived", arrived, issued)
	}
	// Shard 2 owns nodes [12, 18): 6 nodes crashed for 4 rounds in every
	// attempt's replay of the schedule.
	if wantCrash := int64(6 * 4 * got.Attempts); got.Faults.Crashed != wantCrash {
		t.Errorf("crash node-rounds = %d over %d attempts, want %d", got.Faults.Crashed, got.Attempts, wantCrash)
	}
}

// TestGHSRecoveryAfterShardCrashOverTCP runs the windowed-GHS recovery
// story over real shard barriers with a crash-only plan (the schedule
// replays from the spec on every replica) that takes down a whole shard
// and brings it back. The oracle-validated MST
// must come out identical to the in-process run's.
func TestGHSRecoveryAfterShardCrashOverTCP(t *testing.T) {
	const n, shards = 16, 4
	spec := transport.Spec{
		Workload: "ghs", Graph: "rr", N: n, D: 4,
		Seed: 5, SrcSeed: 75, WeightSeed: 12,
		FaultSpec: workloads.CrashShardSpec(n, shards, 1, 5, 6), FaultSeed: 23,
	}
	const attempts = 4
	want, err := workloads.RunGHSFaults(transport.Proc{Workers: 1}, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Recovered {
		t.Fatalf("proc run did not recover the MST within %d attempts", attempts)
	}
	tcp := transport.TCP{Shards: shards, Timeout: 60 * time.Second, Spawn: goroutineSpawner(nil)}
	got, err := workloads.RunGHSFaults(tcp, spec, transport.Options{}, attempts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("shard-crash GHS result diverges from proc:\nwant %+v\ngot  %+v", want, got)
	}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := mstbase.Kruskal(g); got.Weight != want {
		t.Errorf("recovered MST weight %v, oracle %v", got.Weight, want)
	}
}

// TestPlainWorkloadsRejectFaultSpec pins the satellite contract: the
// four fault-unaware workloads error out on a FaultSpec instead of
// silently ignoring it, on both backends (the builder runs before any
// network exists, so one code path serves both), and ghs, which is
// fault-aware, builds its attempt under the spec's plan.
func TestPlainWorkloadsRejectFaultSpec(t *testing.T) {
	for _, spec := range suiteSpecs(1) {
		spec.FaultSpec = "drop=0.1"
		if spec.Workload == "ghs" {
			wl, err := transport.Lookup(spec.Workload)
			if err != nil {
				t.Fatal(err)
			}
			if inst, err := wl.Build(spec); err != nil || inst.Faults == nil || inst.Faults.Empty() {
				t.Errorf("ghs: fault spec not taken (err %v)", err)
			}
			continue
		}
		if _, err := (transport.Proc{Workers: 1}).Run(spec, transport.Options{}); err == nil {
			t.Errorf("%s: fault spec accepted by a fault-unaware workload", spec.Workload)
		}
	}
}
