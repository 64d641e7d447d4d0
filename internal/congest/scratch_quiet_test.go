package congest

import (
	"testing"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// Node 1 receives a token in round 1 and would forward it in its next
// step, but crashes rounds 2..4 (recovers at round 5). The network is
// silent while it is crashed; on recovery it should forward the token.
func TestScratchQuietRecovery(t *testing.T) {
	g := graph.Path(3)
	plan := faults.New(1).WithCrash(1, 2, 3)
	pending := false
	got := 0
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) {
				if ctx.ID() == 0 {
					ctx.Send(0, ping)
				}
			},
			step: func(ctx *Ctx, inbox []Inbound) {
				switch ctx.ID() {
				case 1:
					if len(inbox) > 0 {
						pending = true
						return // forward on NEXT step (queued state)
					}
					if pending {
						pending = false
						ctx.Send(1, ping) // toward node 2
					}
				case 2:
					got += len(inbox)
				}
			},
		}
	}, rngutil.NewSource(1)).SetFaults(plan)
	rounds, err := net.RunUntilQuiet(50)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rounds=%d got=%d", rounds, got)
	if got != 1 {
		t.Fatalf("node 2 received %d tokens, want 1 (recovery round never executed?)", got)
	}
}
