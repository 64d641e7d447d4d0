package congest

// The sleep promise (Ctx.SleepUntil) and the skip rule it feeds: an engine
// that counts a stretch of idle rounds instead of stepping them must be
// indistinguishable from one that steps them all. The oracle is onShards,
// which steps every round — a sleeping node stepped with an empty inbox
// keeps its promise and does nothing — so every differential run below
// compares skipping engines (workers 1, 2, 8) against a driver that never
// skips (shards 2, 3), under fault plans too.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"almostmix/internal/faults"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

const kindSleeper = KindTest + 1

// sleeperConfig is one member of the sleeper program family: how long a
// node may sleep, how often an awake step sends or halts, and the fault
// plan the run is under. testing/quick generates it.
type sleeperConfig struct {
	Seed             uint64
	Span             int // a sleep lasts 1..Span rounds
	SendPct, HaltPct int // per awake step, chances in percent
	Spec             string
}

// Generate draws a config: spans up to 40 rounds, sends and halts rare
// enough that the network falls idle, and one of the plans — drop, delay,
// a crash that recovers, all three — or none.
func (sleeperConfig) Generate(r *rand.Rand, _ int) reflect.Value {
	crash := fmt.Sprintf("crash=%d@%d+%d", r.Intn(26), 1+r.Intn(60), 1+r.Intn(30))
	specs := []string{"", "drop=0.1", "delay=0.2:3", crash, "drop=0.05,delay=0.1:2," + crash}
	return reflect.ValueOf(sleeperConfig{
		Seed:    r.Uint64(),
		Span:    1 + r.Intn(40),
		SendPct: 5 + r.Intn(60),
		HaltPct: r.Intn(4),
		Spec:    specs[r.Intn(len(specs))],
	})
}

// sleeper is the family's node program. An empty-inbox step before its
// wake round keeps the promise it made — it only renews it — so it is a
// no-op; any other step folds the inbox and one Rand draw into the node's
// state, then may halt, send to a random port and sleep a random span.
type sleeper struct {
	cfg   sleeperConfig
	wake  int
	state []uint64 // by node: everything the node heard and drew
}

func (p *sleeper) Init(ctx *Ctx) {
	if ctx.ID() == 0 {
		ctx.Send(0, Message{Kind: kindSleeper, W: 1})
	}
}

func (p *sleeper) Step(ctx *Ctx, inbox []Inbound) {
	if len(inbox) == 0 && ctx.Round() < p.wake {
		ctx.SleepUntil(p.wake)
		return
	}
	acc := &p.state[ctx.ID()]
	for _, in := range inbox {
		*acc = *acc*31 + in.Payload.W + uint64(in.Port)
	}
	r := ctx.Rand().Uint64()
	*acc ^= r
	if int(r%100) < p.cfg.HaltPct {
		ctx.Halt()
		return
	}
	if int(r>>8%100) < p.cfg.SendPct {
		ctx.Send(int(r>>16%uint64(ctx.Degree())), Message{Kind: kindSleeper, W: *acc})
	}
	p.wake = 0
	if r>>24%4 != 0 {
		p.wake = ctx.Round() + 1 + int(r>>32%uint64(p.cfg.Span))
		ctx.SleepUntil(p.wake)
	}
}

// sleeperScenario runs the family member cfg on the differential graphs.
func sleeperScenario(cfg sleeperConfig) diffScenario {
	return diffScenario{
		name:      fmt.Sprintf("sleeper %+v", cfg),
		spec:      cfg.Spec,
		maxRounds: 300,
		build: func(seed uint64) (*Network, func() any) {
			g := diffGraph(seed)
			state := make([]uint64, g.N())
			net := NewUniformNetwork(g, func(int) Program { return &sleeper{cfg: cfg, state: state} }, rngutil.NewSource(seed))
			return net, func() any { return state }
		},
	}
}

// skippedRounds runs the scenario once more on the sequential engine, with
// a metrics registry, and returns how many rounds it skipped.
func skippedRounds(sc diffScenario, seed uint64, plan func() *faults.Plan) int64 {
	net, _ := sc.build(seed)
	reg := metrics.New()
	net.SetFaults(plan()).SetMetrics(reg).Run(sc.maxRounds)
	n, _ := reg.Snapshot().Counter("congest_rounds_skipped_total")
	return n
}

// TestSleeperSkipsMatchSteppedRounds is the property: for every generated
// sleeper, every engine's rounds, messages, probe events, fault totals,
// error and final state are byte-identical to the never-skipping oracle's —
// and across the family, rounds were skipped.
func TestSleeperSkipsMatchSteppedRounds(t *testing.T) {
	count, skipped := 20, int64(0)
	if testing.Short() {
		count = 8
	}
	property := func(cfg sleeperConfig) bool {
		sc := sleeperScenario(cfg)
		plan := specPlan(t, sc, cfg.Seed)
		_, diffs := differences(sc, cfg.Seed, plan)
		for _, d := range diffs {
			t.Log(d)
		}
		skipped += skippedRounds(sc, cfg.Seed, plan)
		return len(diffs) == 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(34))}); err != nil {
		t.Error(err)
	}
	if skipped == 0 {
		t.Error("no generated sleeper skipped a round: the skip rule went untested")
	}
}

// TestSkipAcrossCrashedWake pins the case a skip must not swallow: a node
// crashed over the round it promised to wake in. Every node wakes on the
// multiples of 10, sends on port 0 and draws; node 2 is crashed from round
// 8 through 14, over its wake at 10, and its neighbours' messages are lost
// there. The engines skip the idle rounds between the wakes and still
// agree with the oracle in every observable.
func TestSkipAcrossCrashedWake(t *testing.T) {
	sc := diffScenario{
		name:      "metronome",
		spec:      "crash=2@8+7,drop=0.05,delay=0.1:2",
		maxRounds: 200,
		build: func(seed uint64) (*Network, func() any) {
			g := diffGraph(seed)
			heard := make([]uint64, g.N())
			net := NewUniformNetwork(g, func(int) Program {
				return programFunc{step: func(ctx *Ctx, inbox []Inbound) {
					next := (ctx.Round()/10 + 1) * 10
					for _, in := range inbox {
						heard[ctx.ID()] = heard[ctx.ID()]*31 + in.Payload.W
					}
					if ctx.Round()%10 == 0 {
						if ctx.Round() >= 60 {
							ctx.Halt()
							return
						}
						ctx.Send(0, Message{Kind: kindSleeper, W: ctx.Rand().Uint64()})
					}
					ctx.SleepUntil(next)
				}}
			}, rngutil.NewSource(seed))
			return net, func() any { return heard }
		},
	}
	runDifferential(t, sc)
	for _, seed := range diffSeeds {
		if n := skippedRounds(sc, seed, specPlan(t, sc, seed)); n == 0 {
			t.Errorf("seed %d: no round skipped", seed)
		}
	}
}
