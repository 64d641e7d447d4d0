package congest

// Lifecycle regression tests for the configuration seam: every Set*
// option applied after a Network has started must fail loudly (the
// silent alternative is a spent network that looks half-configured),
// and the Shard harness must enforce the same single-use contract the
// engines do — including SetFaults after NewShard, which would
// otherwise silently diverge the replica from its coordinator.

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func tickerNetwork(t *testing.T) *Network {
	t.Helper()
	g := graph.Ring(8)
	return NewUniformNetwork(g, func(int) Program { return NewTicker(3) }, rngutil.NewSource(1))
}

func mustPanic(t *testing.T, option string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s after Run: no panic", option)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, option) || !strings.Contains(msg, "after Run") {
			t.Fatalf("%s after Run panicked with %v, want a message naming the option and the lifecycle rule", option, r)
		}
	}()
	fn()
}

func TestConfigureAfterRunPanics(t *testing.T) {
	plan, err := faults.Parse("drop=0.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		option string
		apply  func(n *Network)
	}{
		{"SetWorkers", func(n *Network) { n.SetWorkers(2) }},
		{"SetProbe", func(n *Network) { n.SetProbe(NopProbe{}) }},
		{"SetMetrics", func(n *Network) { n.SetMetrics(nil) }},
		{"SetFaults", func(n *Network) { n.SetFaults(plan) }},
	}
	for _, tc := range cases {
		t.Run(tc.option, func(t *testing.T) {
			net := tickerNetwork(t)
			if _, err := net.Run(10); err != nil {
				t.Fatalf("first run: %v", err)
			}
			mustPanic(t, tc.option, func() { tc.apply(net) })
		})
	}
}

func TestConfigureBeforeRunStillChains(t *testing.T) {
	net := tickerNetwork(t).SetWorkers(2).SetProbe(NopProbe{}).SetMetrics(nil).SetFaults(nil)
	if _, err := net.Run(10); err != nil {
		t.Fatalf("run after full configuration chain: %v", err)
	}
}

func TestNewShardConsumesSingleUse(t *testing.T) {
	net := tickerNetwork(t)
	split := Split{N: 8, K: 2}
	if _, err := NewShard(net, split, 0); err != nil {
		t.Fatalf("first NewShard: %v", err)
	}
	if _, err := NewShard(net, split, 1); !errors.Is(err, ErrNetworkReused) {
		t.Fatalf("second NewShard: err = %v, want ErrNetworkReused", err)
	}
	if _, err := net.Run(10); !errors.Is(err, ErrNetworkReused) {
		t.Fatalf("Run after NewShard: err = %v, want ErrNetworkReused", err)
	}
	mustPanic(t, "SetProbe", func() { net.SetProbe(NopProbe{}) })
}

func TestNewShardRejectsBadRange(t *testing.T) {
	if _, err := NewShard(tickerNetwork(t), Split{N: 8, K: 2}, -1); err == nil {
		t.Error("negative part accepted")
	}
	if _, err := NewShard(tickerNetwork(t), Split{N: 9, K: 2}, 0); err == nil {
		t.Error("split of more nodes than the network's accepted")
	}
	if _, err := NewShard(tickerNetwork(t), Split{N: 8, K: 2}, 2); err == nil {
		t.Error("part beyond the split accepted")
	}
	if _, err := NewShard(tickerNetwork(t), Split{N: 8}, 0); err == nil {
		t.Error("split into no parts accepted")
	}
}

// TestShardAcceptsFaultPlanOnceOnly pins the lifted restriction and its
// replacement contract: a fault plan attached BEFORE NewShard is
// accepted (every wire-backend replica attaches its plan this way), while
// SetFaults after NewShard — a replica that would silently diverge from
// its coordinator — panics through the same mustConfigure seam as every
// other post-Run Set* call.
func TestShardAcceptsFaultPlanOnceOnly(t *testing.T) {
	plan, err := faults.Parse("drop=0.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	net := tickerNetwork(t).SetFaults(plan)
	s, err := NewShard(net, Split{N: 8, K: 2}, 0)
	if err != nil {
		t.Fatalf("NewShard with fault plan: %v", err)
	}
	s.Init()
	mustPanic(t, "SetFaults", func() { net.SetFaults(plan) })
	if got := s.FaultCounts(); got.Any() {
		t.Errorf("fault counts before any round: %+v, want zero", got)
	}
}

// TestShardStageValidation: Ring(8) split [0,4) | [4,8). Each direction
// of the pair crosses two edges, listed in the sender's CSR order: shard
// 0's node 0 → 7 and node 3 → 4, shard 1's node 4 → 3 and node 7 → 0. A
// send taken off one end's list and staged on the other's at the same
// index is delivered over that edge; a slot staged twice is refused.
func TestShardStageValidation(t *testing.T) {
	split := Split{N: 8, K: 2}
	var shards [2]*Shard
	for i := range shards {
		s, err := NewShard(tickerNetwork(t), split, i)
		if err != nil {
			t.Fatal(err)
		}
		s.Init() // tickers broadcast: every crossing slot holds a Tick
		shards[i] = s
	}
	out, in := shards[1].Outbound(0), shards[0].Inbound(1)
	if out.Len() != 2 || in.Len() != 2 || shards[0].Outbound(0).Len() != 0 {
		t.Fatalf("crossing lists of %d and %d slots (own %d), want 2, 2 and 0", out.Len(), in.Len(), shards[0].Outbound(0).Len())
	}
	if m := out.Take(1); m != Tick {
		t.Fatalf("Take of node 7's send: %+v, want Tick", m)
	}
	if m := out.Take(1); m.Kind != 0 {
		t.Fatalf("second Take of the same slot: %+v, want the empty record", m)
	}
	if err := in.Stage(1, Tick); err != nil {
		t.Fatal(err)
	}
	if err := in.Stage(1, Tick); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate stage: err = %v, want duplicate rejection", err)
	}
	shards[0].Deliver()
	// Node 0 hears node 1 (its own shard's Init) and node 7 (staged);
	// node 3 hears only node 2, for slot 0 was never staged.
	for _, c := range []struct{ node, from int }{{0, 7}, {3, 2}} {
		inbox := shards[0].Inbox(c.node)
		if !slices.ContainsFunc(inbox, func(in Inbound) bool { return int(in.From) == c.from }) {
			t.Errorf("node %d's inbox %+v lacks the send from node %d", c.node, inbox, c.from)
		}
	}
	if got := len(shards[0].Inbox(3)); got != 1 {
		t.Errorf("node 3 heard %d sends, want 1: a slot nobody staged is empty", got)
	}
}
