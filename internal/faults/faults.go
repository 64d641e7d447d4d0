// Package faults provides a deterministic, seed-reproducible fault plan
// for the CONGEST simulator: per-message drop, duplication and delay,
// node crashes with optional recovery, and severed links.
//
// The paper's algorithms assume a fault-free synchronous network; this
// package is the controlled way to weaken that assumption and measure
// what degrades (EXPERIMENTS.md E15). Every per-message decision is a
// pure hash of (seed, round, directed-edge slot) via an rngutil stream —
// never a draw from a shared sequential generator — so a fixed
// (seed, spec) pair injects the exact same fault events regardless of
// engine, worker count or iteration order. That is what lets the
// differential suites assert bit-identical faulty executions across every
// worker and shard count of the one round loop.
//
// The package is deliberately independent of the simulator: it only
// answers "what happens to the message in this slot this round?" and
// "is this node crashed this round?". The one canonical injection point
// lives in internal/congest's receiver-driven delivery path. The TCP
// backend needs nothing more: every shard process rebuilds the plan from
// the run's spec and rolls the same hashes for the messages it receives.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"almostmix/internal/rngutil"
)

// Counts are injected-fault event totals: messages dropped (including
// losses at severed links and crashed receivers), duplicated and delayed,
// plus node-rounds spent crashed. The zero value is ready to use.
type Counts struct {
	Dropped    int64 `json:"dropped,omitempty"`
	Duplicated int64 `json:"duplicated,omitempty"`
	Delayed    int64 `json:"delayed,omitempty"`
	Crashed    int64 `json:"crashed,omitempty"`
}

// Add folds o into c.
func (c *Counts) Add(o Counts) {
	c.Dropped += o.Dropped
	c.Duplicated += o.Duplicated
	c.Delayed += o.Delayed
	c.Crashed += o.Crashed
}

// Any reports whether any event was counted.
func (c Counts) Any() bool {
	return c.Dropped != 0 || c.Duplicated != 0 || c.Delayed != 0 || c.Crashed != 0
}

// Crash is one node-crash rule: Node stops executing and receiving from
// round Round (1-based, inclusive) for Recover rounds; Recover == 0 means
// the crash is permanent. Program state is preserved across recovery
// (crash-stop with state-preserving restart), so the model is message
// omission for the crashed interval.
type Crash struct {
	Node, Round, Recover int
}

// Sever is one link-failure rule: from round Round on, every delivery
// across edge Edge (both directions) is dropped.
type Sever struct {
	Edge, Round int
}

// Fate is the per-message outcome of the plan's deterministic roll.
type Fate int

const (
	// Deliver leaves the message untouched.
	Deliver Fate = iota
	// Drop discards the message.
	Drop
	// Duplicate delivers the message twice in the same round.
	Duplicate
	// Delay postpones delivery by the plan's delay (MessageFate's second
	// return). A delayed message is rolled only once: it delivers plainly
	// at its due round.
	Delay
)

// Plan is a deterministic fault-injection plan. Build one with Parse (the
// -faults flag syntax) or New plus the With* builders; attach it to a
// simulator run with congest.Network.SetFaults. Decisions are stateless
// hashes, so a Plan may observe several consecutive runs (totals
// accumulate, like the multi-run trace probes), but it must not be shared
// by two concurrently running networks.
type Plan struct {
	src     *rngutil.Source
	seed    uint64
	drop    float64
	dup     float64
	delayP  float64
	delayBy int
	crashes []Crash
	severs  []Sever

	// totals is written only by the engine coordinator between round
	// barriers (AddCounts) and read after the run (Totals).
	totals Counts
}

// New returns an empty plan rooted at seed: no rules, every message
// delivered untouched. Attaching an empty plan to a network is
// byte-identical to attaching none (asserted by the congest tests).
func New(seed uint64) *Plan {
	return &Plan{src: rngutil.NewSource(seed), seed: seed}
}

// Seed returns the plan's root seed.
func (p *Plan) Seed() uint64 { return p.seed }

// Empty reports whether the plan has no rules at all.
func (p *Plan) Empty() bool {
	return p.drop == 0 && p.dup == 0 && p.delayP == 0 &&
		len(p.crashes) == 0 && len(p.severs) == 0
}

// WithDrop sets the per-message drop probability.
func (p *Plan) WithDrop(prob float64) *Plan {
	mustProb("drop", prob)
	p.drop = prob
	p.checkBudget()
	return p
}

// WithDuplicate sets the per-message duplication probability.
func (p *Plan) WithDuplicate(prob float64) *Plan {
	mustProb("dup", prob)
	p.dup = prob
	p.checkBudget()
	return p
}

// WithDelay makes each message independently delayed by rounds with the
// given probability.
func (p *Plan) WithDelay(prob float64, rounds int) *Plan {
	mustProb("delay", prob)
	if rounds < 1 {
		panic(fmt.Sprintf("faults: delay of %d rounds (want >= 1)", rounds))
	}
	p.delayP = prob
	p.delayBy = rounds
	p.checkBudget()
	return p
}

// WithCrash adds a crash rule (recover == 0 is permanent).
func (p *Plan) WithCrash(node, round, recover int) *Plan {
	if node < 0 || round < 1 || recover < 0 {
		panic(fmt.Sprintf("faults: invalid crash node=%d round=%d recover=%d", node, round, recover))
	}
	p.crashes = append(p.crashes, Crash{Node: node, Round: round, Recover: recover})
	return p
}

// WithSever adds a link-failure rule.
func (p *Plan) WithSever(edge, round int) *Plan {
	if edge < 0 || round < 1 {
		panic(fmt.Sprintf("faults: invalid sever edge=%d round=%d", edge, round))
	}
	p.severs = append(p.severs, Sever{Edge: edge, Round: round})
	return p
}

func mustProb(name string, prob float64) {
	// The negated form also rejects NaN, which fails every comparison.
	if !(prob >= 0 && prob <= 1) {
		panic(fmt.Sprintf("faults: %s probability %v outside [0,1]", name, prob))
	}
}

func (p *Plan) checkBudget() {
	if p.drop+p.dup+p.delayP > 1 {
		panic(fmt.Sprintf("faults: drop+dup+delay probabilities sum to %v > 1",
			p.drop+p.dup+p.delayP))
	}
}

// MessageFate decides what happens to the message delivered in the given
// round on the given directed-edge slot (2·edgeID + direction, the probe
// layer's encoding — unique per message per round under the CONGEST
// capacity). It returns the fate and, for Delay, the delay in rounds. The
// decision is a pure function of (seed, round, slot): one uniform roll
// partitioned into drop / duplicate / delay / deliver bands.
func (p *Plan) MessageFate(round, slot int) (Fate, int) {
	if p.drop == 0 && p.dup == 0 && p.delayP == 0 {
		return Deliver, 0
	}
	u := p.src.Derive("msg", uint64(round)<<33^uint64(slot))
	roll := float64(u>>11) / (1 << 53)
	switch {
	case roll < p.drop:
		return Drop, 0
	case roll < p.drop+p.dup:
		return Duplicate, 0
	case roll < p.drop+p.dup+p.delayP:
		return Delay, p.delayBy
	default:
		return Deliver, 0
	}
}

// Crashed reports whether node is crashed in the given (1-based) round.
func (p *Plan) Crashed(node, round int) bool {
	for _, c := range p.crashes {
		if c.Node != node || round < c.Round {
			continue
		}
		if c.Recover == 0 || round < c.Round+c.Recover {
			return true
		}
	}
	return false
}

// Severed reports whether edge is severed in the given round.
func (p *Plan) Severed(edge, round int) bool {
	for _, s := range p.severs {
		if s.Edge == edge && round >= s.Round {
			return true
		}
	}
	return false
}

// CrashedCount returns the number of nodes in [lo, hi) crashed in the
// given round. Partitioned executors count crash node-rounds over their
// own range, so the counts of disjoint ranges sum to the whole network's.
func (p *Plan) CrashedCount(round, lo, hi int) int {
	n := 0
	for _, c := range p.crashes {
		if c.Node >= lo && c.Node < hi &&
			round >= c.Round && (c.Recover == 0 || round < c.Round+c.Recover) {
			n++
		}
	}
	return n
}

// RecoveringAt reports whether any crashed node is due to recover after
// the given round.
func (p *Plan) RecoveringAt(round int) bool {
	for _, c := range p.crashes {
		if c.Recover > 0 && round >= c.Round && round < c.Round+c.Recover {
			return true
		}
	}
	return false
}

// QuietAfter reports whether the crash schedule allows a quiet-terminating
// run to end at the quiet check that follows lastRound, the last executed
// round (the check runs before the round counter advances). A recovery can
// resume traffic from queued program state, so the run must survive
// through the recovery round itself: a node that recovers at round r
// steps again only IN round r, and checking just the next round would
// quit one round early and drop that state (congest's
// TestQuietWaitsForCrashRecovery pins this). Delayed messages still in
// flight are the engines' half of the rule; they hold the pending buffers.
func (p *Plan) QuietAfter(lastRound int) bool {
	return !p.RecoveringAt(lastRound) && !p.RecoveringAt(lastRound+1)
}

// Validate checks the plan's crash and sever rules against a graph of the
// given size: a rule naming a node >= nodes or an edge >= edges can never
// fire, and would count phantom crashed node-rounds on the in-process
// engines but not on sharded ones. Parse cannot check this (it has no
// graph); the transport backends do, before any round runs.
func (p *Plan) Validate(nodes, edges int) error {
	for _, c := range p.crashes {
		if c.Node >= nodes {
			clause := fmt.Sprintf("crash=%d@%d", c.Node, c.Round)
			if c.Recover > 0 {
				clause += fmt.Sprintf("+%d", c.Recover)
			}
			return fmt.Errorf("faults: clause %q: node %d outside the graph's %d nodes", clause, c.Node, nodes)
		}
	}
	for _, s := range p.severs {
		if s.Edge >= edges {
			clause := fmt.Sprintf("sever=%d@%d", s.Edge, s.Round)
			return fmt.Errorf("faults: clause %q: edge %d outside the graph's %d edges", clause, s.Edge, edges)
		}
	}
	return nil
}

// MaxDelay returns the largest delay the plan can impose on one message
// (0 with no delay rule), for callers sizing round budgets.
func (p *Plan) MaxDelay() int {
	if p.delayP > 0 {
		return p.delayBy
	}
	return 0
}

// RecoverySlack returns the total number of crashed-with-recovery
// node-rounds, a round-budget supplement for runs that must outlive every
// scheduled recovery.
func (p *Plan) RecoverySlack() int {
	total := 0
	for _, c := range p.crashes {
		total += c.Recover
	}
	return total
}

// AddCounts folds one round's injected-event counts into the plan totals.
// It must be called only from the engine coordinator between round
// barriers (congest does; see part.FaultCounts).
func (p *Plan) AddCounts(c Counts) { p.totals.Add(c) }

// Totals returns the accumulated injected-event counts across every run
// the plan has observed.
func (p *Plan) Totals() Counts { return p.totals }

// Parse builds a plan from the -faults flag syntax: comma-separated
// clauses
//
//	drop=P            drop each message with probability P
//	dup=P             duplicate each message with probability P
//	delay=P:D         delay each message by D rounds with probability P
//	crash=V@R         crash node V at round R, permanently
//	crash=V@R+K       crash node V at round R, recover after K rounds
//	sever=E@R         sever edge E from round R on
//
// e.g. "drop=0.05,dup=0.01,delay=0.1:3,crash=5@40+20,sever=2@10". An
// empty spec yields an empty plan. The seed feeds every probabilistic
// decision; (seed, spec) fully determines the injected event stream.
func Parse(spec string, seed uint64) (*Plan, error) {
	p := New(seed)
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	if err := p.parse(spec); err != nil {
		return nil, fmt.Errorf("faults: spec %q: %w", spec, err)
	}
	return p, nil
}

func (p *Plan) parse(spec string) (err error) {
	// The builders panic on out-of-range values so programmatic misuse
	// fails loudly; for flag input, convert those panics to errors.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("clause %q: want key=value", clause)
		}
		switch key {
		case "drop", "dup":
			prob, perr := strconv.ParseFloat(val, 64)
			if perr != nil {
				return fmt.Errorf("clause %q: bad probability: %v", clause, perr)
			}
			if key == "drop" {
				p.WithDrop(prob)
			} else {
				p.WithDuplicate(prob)
			}
		case "delay":
			probS, roundsS, ok := strings.Cut(val, ":")
			if !ok {
				return fmt.Errorf("clause %q: want delay=P:rounds", clause)
			}
			prob, perr := strconv.ParseFloat(probS, 64)
			if perr != nil {
				return fmt.Errorf("clause %q: bad probability: %v", clause, perr)
			}
			rounds, rerr := strconv.Atoi(roundsS)
			if rerr != nil {
				return fmt.Errorf("clause %q: bad round count: %v", clause, rerr)
			}
			p.WithDelay(prob, rounds)
		case "crash":
			nodeS, rest, ok := strings.Cut(val, "@")
			if !ok {
				return fmt.Errorf("clause %q: want crash=node@round[+recover]", clause)
			}
			roundS, recoverS, hasRecover := strings.Cut(rest, "+")
			node, nerr := strconv.Atoi(nodeS)
			round, rerr := strconv.Atoi(roundS)
			if nerr != nil || rerr != nil {
				return fmt.Errorf("clause %q: bad node or round", clause)
			}
			recover := 0
			if hasRecover {
				var kerr error
				if recover, kerr = strconv.Atoi(recoverS); kerr != nil || recover < 1 {
					return fmt.Errorf("clause %q: bad recovery round count", clause)
				}
			}
			p.WithCrash(node, round, recover)
		case "sever":
			edgeS, roundS, ok := strings.Cut(val, "@")
			if !ok {
				return fmt.Errorf("clause %q: want sever=edge@round", clause)
			}
			edge, eerr := strconv.Atoi(edgeS)
			round, rerr := strconv.Atoi(roundS)
			if eerr != nil || rerr != nil {
				return fmt.Errorf("clause %q: bad edge or round", clause)
			}
			p.WithSever(edge, round)
		default:
			return fmt.Errorf("clause %q: unknown rule %q (want drop, dup, delay, crash or sever)", clause, key)
		}
	}
	return nil
}
