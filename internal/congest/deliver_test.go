package congest

// The delivery point against its definition. A message sent on a port
// arrives on the port at the other end of the same edge, and a receiver's
// inbox lists what arrived in its own port order; a halted receiver gets
// nothing. The property below fills random slots of random multigraphs
// through Send, halts some receivers, and holds every inbox deliverTo
// builds to a reference scan written from that definition alone — the
// reverse half-edge found by its arc, not through the engine's peer table
// — on the fault-free path and on the fault path under an empty plan.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// sendKey names one send: the sending node and its port.
type sendKey struct{ node, port int }

// refInbox is the reference inbox of receiver u: for each of u's ports in
// order, the record the neighbor across it sent on its own end of the same
// edge — the half-edge at the neighbor whose arc is the port's arc with the
// direction bit flipped — if it sent one.
func refInbox(g *graph.Graph, sent map[sendKey]Message, u int) []Inbound {
	inbox := []Inbound{}
	for p, h := range g.Neighbors(u) {
		w := int(h.To)
		q := -1
		for i, back := range g.Neighbors(w) {
			if back.Arc == h.Arc^1 {
				q = i
			}
		}
		if m, ok := sent[sendKey{w, q}]; ok {
			inbox = append(inbox, Inbound{Port: int32(p), From: int32(w), Payload: m})
		}
	}
	return inbox
}

// deliveryCase builds a random multigraph on n nodes whose last isolated
// nodes have degree 0, fills a random share of its ports through Send,
// halts a random share of its nodes and returns the network and the sends.
func deliveryCase(seed uint64, n, isolated, edges int, fill, halt float64, faulty bool) (*Network, map[sendKey]Message) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	linked := n - isolated
	var list []graph.Edge
	for e := 0; linked >= 2 && e < edges; e++ {
		u, v := rng.IntN(linked), rng.IntN(linked-1)
		if v >= u {
			v++
		}
		list = append(list, graph.Edge{U: u, V: v, W: 1})
	}
	g := graph.FromEdges(n, list)
	// The programs never run: the property drives the slots and the
	// delivery point directly.
	net := NewUniformNetwork(g, func(int) Program { return neverHalt{} }, rngutil.NewSource(seed))
	if faulty {
		net.SetFaults(faults.New(seed))
		net.faultsRunStart()
	}
	sent := map[sendKey]Message{}
	for v := range net.ctxs {
		ctx := &net.ctxs[v]
		for p := 0; p < ctx.Degree(); p++ {
			if rng.Float64() < fill {
				m := Message{Kind: KindTest + Kind(rng.IntN(3)), Win: int32(v), A: int32(p), B: rng.Int32(), W: rng.Uint64()}
				ctx.Send(p, m)
				sent[sendKey{v, p}] = m
			}
		}
		if rng.Float64() < halt {
			ctx.halted = true
		}
	}
	return net, sent
}

// deliveryHolds runs one case and reports every way deliverTo departs
// from the reference: an inbox, a returned count, a slot left full, or a
// fault counted under the empty plan.
func deliveryHolds(t *testing.T, seed uint64, n, isolated, edges int, fill, halt float64, faulty bool) bool {
	net, sent := deliveryCase(seed, n, isolated, edges, fill, halt, faulty)
	var fc faults.Counts
	ok := true
	for u := 0; u < n; u++ {
		want := []Inbound{}
		if !net.ctxs[u].halted {
			want = refInbox(net.g, sent, u)
		}
		got := net.deliverTo(u, &fc)
		inbox := append([]Inbound{}, net.inboxes[u]...)
		if got != len(inbox) || !reflect.DeepEqual(inbox, want) {
			t.Logf("seed %d n=%d faulty=%v: receiver %d (halted %v) got %d, inbox %v, want %v", seed, n, faulty, u, net.ctxs[u].halted, got, inbox, want)
			ok = false
		}
	}
	for i, m := range net.out {
		if m.Kind != 0 {
			t.Logf("seed %d n=%d faulty=%v: slot %d still holds %+v after every receiver took its row", seed, n, faulty, i, m)
			ok = false
		}
	}
	if fc != (faults.Counts{}) {
		t.Logf("seed %d: the empty plan counted %+v", seed, fc)
		ok = false
	}
	return ok
}

func TestDeliveryMatchesReference(t *testing.T) {
	check := func(seed uint64, nRaw, isoRaw, edgeRaw, fillRaw, haltRaw uint8, faulty bool) bool {
		n := int(nRaw%24) + 1
		return deliveryHolds(t, seed, n, int(isoRaw)%(n/2+1), int(edgeRaw)%(4*n), float64(fillRaw)/255, float64(haltRaw%128)/255, faulty)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// Fixed corners: every port full with none halted, a graph of isolated
	// nodes only, and every node halted.
	for _, c := range []struct {
		n, iso, edges int
		fill, halt    float64
	}{{12, 0, 40, 1, 0}, {5, 5, 0, 1, 0}, {9, 2, 20, 1, 1}} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d,iso=%d,fill=%v,halt=%v,faulty=%v", c.n, c.iso, c.fill, c.halt, faulty), func(t *testing.T) {
				if !deliveryHolds(t, 7, c.n, c.iso, c.edges, c.fill, c.halt, faulty) {
					t.Fail()
				}
			})
		}
	}
}
