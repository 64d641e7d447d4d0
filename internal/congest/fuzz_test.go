package congest

// Go-native fuzz harness for the simulator: arbitrary small graphs, a
// message-echo program, both engines. The target asserts the simulator's
// structural invariants (no panics, rounds within the budget, delivered
// ports valid and consistent with the topology) and differentially checks
// the parallel engine against the sequential reference on every input.
// The f.Add calls below are the committed seed corpus.

import (
	"errors"
	"reflect"
	"testing"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// echoProgram broadcasts at init and echoes every received message back on
// the port it arrived on, validating delivery metadata as it goes.
type echoProgram struct {
	recv    []int // shared; each node writes only its own index
	maxEcho int
	t       *testing.T
}

func (p *echoProgram) Init(ctx *Ctx) { ctx.Broadcast(testInt(ctx.ID())) }

func (p *echoProgram) Step(ctx *Ctx, inbox []Inbound) {
	for _, in := range inbox {
		if in.Port < 0 || int(in.Port) >= ctx.Degree() {
			p.t.Errorf("node %d delivered on invalid port %d (degree %d)", ctx.ID(), in.Port, ctx.Degree())
			continue
		}
		if got := ctx.NeighborID(int(in.Port)); got != int(in.From) {
			p.t.Errorf("node %d port %d: From=%d but neighbor is %d", ctx.ID(), in.Port, in.From, got)
		}
		p.recv[ctx.ID()]++
		ctx.Send(int(in.Port), in.Payload)
	}
	if ctx.Round() >= p.maxEcho {
		ctx.Halt()
	}
}

func FuzzNetworkRun(f *testing.F) {
	f.Add(uint64(1), uint16(0xffff), uint8(4), uint8(8), uint8(1))
	f.Add(uint64(2), uint16(0x0001), uint8(2), uint8(1), uint8(2))
	f.Add(uint64(3), uint16(0xaaaa), uint8(7), uint8(20), uint8(3))
	f.Add(uint64(4), uint16(0x0000), uint8(5), uint8(3), uint8(0))
	f.Add(uint64(5), uint16(0x7777), uint8(6), uint8(31), uint8(8))
	// Degree-extreme topologies stressing the CSR port ranges: a pure
	// star on 6 nodes (pair indices 0–4 are exactly (0,v); one long
	// port range at the hub, singletons at the leaves) and the
	// complete graph K8 (maximum degree, every port table full).
	f.Add(uint64(6), uint16(0x001f), uint8(4), uint8(12), uint8(2))
	f.Add(uint64(7), uint16(0xffff), uint8(6), uint8(12), uint8(4))

	f.Fuzz(func(t *testing.T, seed uint64, edgeMask uint16, nRaw, budgetRaw, workersRaw uint8) {
		n := int(nRaw%7) + 2 // 2..8 nodes
		maxRounds := int(budgetRaw%32) + 1
		workers := int(workersRaw % 9) // 0 (=GOMAXPROCS) .. 8

		g := graph.Build(n, func(add func(u, v int, w float64)) {
			bit := 0
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if edgeMask&(1<<(bit%16)) != 0 {
						add(u, v, 1)
					}
					bit++
				}
			}
		})
		if err := g.Validate(); err != nil {
			t.Fatalf("generated graph invalid: %v", err)
		}

		run := func(parallel bool) (int, int, []int) {
			recv := make([]int, n)
			net := NewUniformNetwork(g, func(v int) Program {
				return &echoProgram{recv: recv, maxEcho: maxRounds / 2, t: t}
			}, rngutil.NewSource(seed))
			if parallel {
				net.SetWorkers(workers)
			}
			rounds, err := net.Run(maxRounds)
			if err != nil && !errors.Is(err, ErrRoundLimit) {
				t.Fatalf("unexpected error: %v", err)
			}
			if rounds > maxRounds {
				t.Fatalf("rounds = %d exceeds budget %d", rounds, maxRounds)
			}
			if rounds != net.Rounds() {
				t.Fatalf("returned rounds %d != Rounds() %d", rounds, net.Rounds())
			}
			return rounds, net.Messages(), recv
		}

		seqRounds, seqMsgs, seqRecv := run(false)
		parRounds, parMsgs, parRecv := run(true)
		if parRounds != seqRounds || parMsgs != seqMsgs || !reflect.DeepEqual(parRecv, seqRecv) {
			t.Fatalf("parallel engine diverges: (rounds=%d msgs=%d) vs sequential (rounds=%d msgs=%d)",
				parRounds, parMsgs, seqRounds, seqMsgs)
		}
	})
}
