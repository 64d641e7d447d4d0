package congest

// Lifecycle regression tests for the configuration seam: every Set*
// option applied after a Network has started must fail loudly (the
// silent alternative is a spent network that looks half-configured),
// and the Shard harness must enforce the same single-use contract the
// engines do — including SetFaults after NewShard, which would
// otherwise silently diverge the replica from its coordinator.

import (
	"errors"
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
	if _, err := NewShard(net, 0, 4); err != nil {
		t.Fatalf("first NewShard: %v", err)
	}
	if _, err := NewShard(net, 4, 8); !errors.Is(err, ErrNetworkReused) {
		t.Fatalf("second NewShard: err = %v, want ErrNetworkReused", err)
	}
	if _, err := net.Run(10); !errors.Is(err, ErrNetworkReused) {
		t.Fatalf("Run after NewShard: err = %v, want ErrNetworkReused", err)
	}
	mustPanic(t, "SetProbe", func() { net.SetProbe(NopProbe{}) })
}

func TestNewShardRejectsBadRange(t *testing.T) {
	if _, err := NewShard(tickerNetwork(t), -1, 4); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := NewShard(tickerNetwork(t), 0, 9); err == nil {
		t.Error("hi beyond n accepted")
	}
	if _, err := NewShard(tickerNetwork(t), 5, 4); err == nil {
		t.Error("inverted range accepted")
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
	s, err := NewShard(net, 0, 4)
	if err != nil {
		t.Fatalf("NewShard with fault plan: %v", err)
	}
	s.Init()
	mustPanic(t, "SetFaults", func() { net.SetFaults(plan) })
	if got := s.FaultCounts(); got.Any() {
		t.Errorf("fault counts before any round: %+v, want zero", got)
	}
}

func TestShardInjectValidation(t *testing.T) {
	// Ring(8) split [0,4) | [4,8): node 0's ports face 7 (remote) and 1
	// (owned); node 1 is interior.
	s, err := NewShard(tickerNetwork(t), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Init()
	if err := s.Inject(5, 0, Tick); err == nil {
		t.Error("inject outside shard accepted")
	}
	if err := s.Inject(0, 7, Tick); err == nil {
		t.Error("invalid port accepted")
	}
	intraPort := -1
	remotePort := -1
	for p := 0; p < 2; p++ {
		// Find which of node 0's ports faces owned node 1 vs remote node 7.
		if err := s.Inject(0, p, Tick); err != nil && strings.Contains(err.Error(), "crosses no shard boundary") {
			intraPort = p
		} else if err == nil {
			remotePort = p
		}
	}
	if intraPort == -1 {
		t.Error("intra-shard inject accepted on both ports")
	}
	if remotePort == -1 {
		t.Fatal("no port accepted a boundary inject")
	}
	if err := s.Inject(0, remotePort, Tick); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate inject: err = %v, want duplicate rejection", err)
	}
}
