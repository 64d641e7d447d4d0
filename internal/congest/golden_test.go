package congest

// Golden differential suite for the hot-path refactors: the exact trace
// bytes and fault fates of a fixed scenario set are pinned in testdata/,
// generated from the pre-CSR (map-based portOf, per-round inbox
// allocation) engines. Any rework of the delivery path — CSR port
// tables, recycled inbox arenas, int32 IDs — must reproduce these files
// byte for byte, on both engines and for every worker count, or it has
// changed observable behavior, not just memory layout.
//
// Regenerate with `go test ./internal/congest -run Golden -update` ONLY
// when the delivery contract itself is deliberately changed.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden testdata files")

// goldenProgram is a deterministic workload exercising every contract the
// refactor must preserve: port-ordered delivery, per-node RNG streams,
// phase marks, staggered halting, and payload forwarding.
type goldenProgram struct {
	haltAt int
	seen   int
	sent   []bool // per-port guard: duplication faults redeliver on one port
}

func (p *goldenProgram) Init(ctx *Ctx) {
	p.sent = make([]bool, ctx.Degree())
	ctx.Broadcast(testInt(ctx.ID()))
}

func (p *goldenProgram) Step(ctx *Ctx, inbox []Inbound) {
	for i := range p.sent {
		p.sent[i] = false
	}
	for _, in := range inbox {
		v := testIntOf(in.Payload)
		p.seen += v
		// Forward on the arrival port with a per-node-stream coin, so the
		// refactor must also preserve RNG consumption order.
		if ctx.Rand().IntN(4) != 0 && !p.sent[in.Port] {
			p.sent[in.Port] = true
			ctx.Send(int(in.Port), testInt(v+1))
		}
	}
	if ctx.Round()%3 == 0 && ctx.Tracing() {
		ctx.Mark(fmt.Sprintf("beat-%d", ctx.Round()/3))
	}
	if ctx.Round() >= p.haltAt {
		ctx.Halt()
	}
}

// goldenDoc is the on-disk golden format: the full trace export plus the
// run totals and fault fates.
type goldenDoc struct {
	Trace    json.RawMessage `json:"trace"`
	Rounds   int             `json:"rounds"`
	Messages int             `json:"messages"`
	Faults   faults.Counts   `json:"faults"`
}

type goldenScenario struct {
	name      string
	build     func() *graph.Graph
	faultSpec string
	maxRounds int
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{name: "gnp24", build: func() *graph.Graph { return graph.Gnp(24, 0.3, rngutil.NewRand(7)) }, maxRounds: 40},
		{name: "star16", build: func() *graph.Graph { return graph.Star(16) }, maxRounds: 40},
		{name: "lollipop8x6", build: func() *graph.Graph { return graph.Lollipop(8, 6) }, maxRounds: 40},
		{name: "rr32d4", build: func() *graph.Graph { return graph.RandomRegular(32, 4, rngutil.NewRand(9)) }, maxRounds: 40},
		{
			name:      "faults-gnp24",
			build:     func() *graph.Graph { return graph.Gnp(24, 0.3, rngutil.NewRand(7)) },
			faultSpec: "drop=0.15,dup=0.1,delay=0.15:2,crash=3@4+5,sever=2@6",
			maxRounds: 40,
		},
		{
			name:      "faults-star16",
			build:     func() *graph.Graph { return graph.Star(16) },
			faultSpec: "drop=0.1,dup=0.2,delay=0.1:3,crash=0@5+4",
			maxRounds: 40,
		},
		{
			name:      "faults-rr32d4",
			build:     func() *graph.Graph { return graph.RandomRegular(32, 4, rngutil.NewRand(9)) },
			faultSpec: "drop=0.2,delay=0.2:1,sever=5@3,crash=7@2+6",
			maxRounds: 40,
		},
	}
}

// runGolden executes one scenario on the given engine/worker combination
// and returns the serialized golden document.
func runGolden(t *testing.T, sc goldenScenario, workers int) []byte {
	t.Helper()
	g := sc.build()
	sink := NewTraceSink()
	net := NewUniformNetwork(g, func(v int) Program {
		return &goldenProgram{haltAt: 12 + v%5}
	}, rngutil.NewSource(41)).SetProbe(sink).SetWorkers(workers)
	var plan *faults.Plan
	if sc.faultSpec != "" {
		var err error
		plan, err = faults.Parse(sc.faultSpec, 99)
		if err != nil {
			t.Fatalf("%s: parse fault spec: %v", sc.name, err)
		}
		net.SetFaults(plan)
	}
	rounds, err := net.Run(sc.maxRounds)
	if err != nil {
		t.Fatalf("%s workers=%d: run: %v", sc.name, workers, err)
	}
	var trace bytes.Buffer
	if err := sink.WriteJSON(&trace); err != nil {
		t.Fatalf("%s: trace export: %v", sc.name, err)
	}
	doc := goldenDoc{
		Trace:    trace.Bytes(),
		Rounds:   rounds,
		Messages: net.Messages(),
	}
	if plan != nil {
		doc.Faults = plan.Totals()
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("%s: marshal: %v", sc.name, err)
	}
	return append(buf, '\n')
}

// TestGoldenTraceFaultFates pins trace bytes and fault fates of the fixed
// scenario set against the committed pre-refactor goldens, with the round
// loop driving one part (the sequential reference) and 2 and 8.
func TestGoldenTraceFaultFates(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", sc.name+".json")
			got := runGolden(t, sc, 1)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sequential engine diverges from pre-refactor golden %s", path)
			}
			for _, workers := range []int{2, 8} {
				if par := runGolden(t, sc, workers); !bytes.Equal(par, want) {
					t.Fatalf("engine at workers=%d diverges from golden %s", workers, path)
				}
			}
		})
	}
}
