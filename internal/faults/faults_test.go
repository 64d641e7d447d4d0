package faults

import (
	"math"
	"testing"
	"testing/quick"
)

// TestParseRoundTrip checks every clause kind lands in the plan.
func TestParse(t *testing.T) {
	p, err := Parse("drop=0.05, dup=0.01, delay=0.1:3, crash=5@40+20, crash=2@9, sever=7@50", 11)
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Fatal("parsed plan reports Empty")
	}
	if p.drop != 0.05 || p.dup != 0.01 || p.delayP != 0.1 || p.delayBy != 3 {
		t.Fatalf("message rules: drop=%v dup=%v delay=%v:%d", p.drop, p.dup, p.delayP, p.delayBy)
	}
	if len(p.crashes) != 2 || p.crashes[0] != (Crash{Node: 5, Round: 40, Recover: 20}) ||
		p.crashes[1] != (Crash{Node: 2, Round: 9}) {
		t.Fatalf("crashes: %+v", p.crashes)
	}
	if len(p.severs) != 1 || p.severs[0] != (Sever{Edge: 7, Round: 50}) {
		t.Fatalf("severs: %+v", p.severs)
	}
	if p.MaxDelay() != 3 || p.RecoverySlack() != 20 {
		t.Fatalf("MaxDelay=%d RecoverySlack=%d", p.MaxDelay(), p.RecoverySlack())
	}
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ","} {
		p, err := Parse(spec, 1)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		if !p.Empty() {
			t.Fatalf("spec %q: plan not empty", spec)
		}
		if f, _ := p.MessageFate(3, 4); f != Deliver {
			t.Fatalf("spec %q: empty plan fate %v", spec, f)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"drop", "drop=x", "drop=1.5", "drop=-0.1",
		"delay=0.5", "delay=0.5:0", "delay=0.5:x",
		"crash=5", "crash=x@2", "crash=5@0", "crash=5@2+0", "crash=-1@2",
		"sever=5", "sever=x@2", "sever=5@0",
		"bogus=1", "drop=0.6,dup=0.6", // probability budget > 1
		"drop=NaN", "dup=nan", "delay=NaN:2", "drop=+Inf", // non-finite
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("spec %q: expected parse error", spec)
		}
	}
}

// TestCrashWindows pins the crash interval semantics: [Round, Round+Recover),
// permanent when Recover == 0.
func TestCrashWindows(t *testing.T) {
	p := New(1).WithCrash(3, 10, 5).WithCrash(4, 7, 0)
	cases := []struct {
		node, round int
		want        bool
	}{
		{3, 9, false}, {3, 10, true}, {3, 14, true}, {3, 15, false},
		{4, 6, false}, {4, 7, true}, {4, 1000, true},
		{5, 10, false},
	}
	for _, c := range cases {
		if got := p.Crashed(c.node, c.round); got != c.want {
			t.Errorf("Crashed(%d, %d) = %v, want %v", c.node, c.round, got, c.want)
		}
	}
	if n := p.CrashedCount(12, 0, 5); n != 2 {
		t.Errorf("CrashedCount(12, 0, 5) = %d, want 2", n)
	}
	if lo, hi := p.CrashedCount(12, 0, 4), p.CrashedCount(12, 4, 5); lo != 1 || hi != 1 {
		t.Errorf("CrashedCount(12) over [0,4), [4,5) = %d, %d, want 1, 1 (disjoint ranges sum to the whole)", lo, hi)
	}
	if !p.RecoveringAt(12) || p.RecoveringAt(15) || p.RecoveringAt(9) {
		t.Error("RecoveringAt wrong around the recovery window")
	}
	// Node 3 is back at round 15: a run whose last executed round is 13
	// or 14 must survive to execute it; from 15 on (and before the crash)
	// the schedule allows a quiet end. The permanent crash never blocks.
	for last, want := range map[int]bool{8: true, 9: false, 13: false, 14: false, 15: true} {
		if got := p.QuietAfter(last); got != want {
			t.Errorf("QuietAfter(%d) = %v, want %v", last, got, want)
		}
	}
}

// TestValidate pins plan-vs-graph validation: the first rule naming a
// node or edge the graph does not have is reported with its clause and
// the bound; everything in range passes.
func TestValidate(t *testing.T) {
	p, err := Parse("drop=0.1,crash=7@2+3,crash=2@9,sever=11@4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(8, 12); err != nil {
		t.Errorf("in-range plan rejected: %v", err)
	}
	for _, c := range []struct {
		nodes, edges int
		want         string
	}{
		{7, 12, `faults: clause "crash=7@2+3": node 7 outside the graph's 7 nodes`},
		{2, 12, `faults: clause "crash=7@2+3": node 7 outside the graph's 2 nodes`},
		{8, 11, `faults: clause "sever=11@4": edge 11 outside the graph's 11 edges`},
	} {
		if err := p.Validate(c.nodes, c.edges); err == nil || err.Error() != c.want {
			t.Errorf("Validate(%d, %d) = %v, want %q", c.nodes, c.edges, err, c.want)
		}
	}
	if err := New(1).Validate(0, 0); err != nil {
		t.Errorf("empty plan rejected: %v", err)
	}
}

func TestSevered(t *testing.T) {
	p := New(1).WithSever(2, 10)
	if p.Severed(2, 9) || !p.Severed(2, 10) || !p.Severed(2, 99) || p.Severed(3, 50) {
		t.Error("Severed interval wrong")
	}
}

// TestFateDeterminism is the core reproducibility property: the same
// (seed, spec) pair yields the identical fate for every (round, slot),
// while a different seed diverges somewhere.
func TestFateDeterminism(t *testing.T) {
	const spec = "drop=0.2,dup=0.1,delay=0.15:2"
	build := func(seed uint64) *Plan {
		p, err := Parse(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, other := build(42), build(42), build(43)
	diverged := false
	for round := 1; round <= 64; round++ {
		for slot := 0; slot < 64; slot++ {
			fa, da := a.MessageFate(round, slot)
			fb, db := b.MessageFate(round, slot)
			if fa != fb || da != db {
				t.Fatalf("round %d slot %d: same seed diverges (%v,%d) vs (%v,%d)",
					round, slot, fa, da, fb, db)
			}
			if fo, _ := other.MessageFate(round, slot); fo != fa {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("seed 42 and 43 produce identical event streams over 4096 slots")
	}
}

// TestFateDeterminismQuick extends the same-seed property over random
// (seed, round, slot) triples.
func TestFateDeterminismQuick(t *testing.T) {
	f := func(seed uint64, round, slot uint16) bool {
		p1 := New(seed).WithDrop(0.3).WithDelay(0.3, 4)
		p2 := New(seed).WithDrop(0.3).WithDelay(0.3, 4)
		f1, d1 := p1.MessageFate(int(round)+1, int(slot))
		f2, d2 := p2.MessageFate(int(round)+1, int(slot))
		return f1 == f2 && d1 == d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFateFrequencies sanity-checks that the partitioned roll honours the
// configured probabilities within loose tolerances.
func TestFateFrequencies(t *testing.T) {
	p := New(7).WithDrop(0.2).WithDuplicate(0.1).WithDelay(0.15, 2)
	var counts [4]int
	const n = 20000
	for i := 0; i < n; i++ {
		f, _ := p.MessageFate(1+i/64, i%64)
		counts[f]++
	}
	frac := func(f Fate) float64 { return float64(counts[f]) / n }
	for _, c := range []struct {
		fate Fate
		want float64
	}{{Drop, 0.2}, {Duplicate, 0.1}, {Delay, 0.15}, {Deliver, 0.55}} {
		if got := frac(c.fate); math.Abs(got-c.want) > 0.02 {
			t.Errorf("fate %v frequency %.3f, want ~%.2f", c.fate, got, c.want)
		}
	}
}

func TestCountsAddAny(t *testing.T) {
	var c Counts
	if c.Any() {
		t.Error("zero Counts reports Any")
	}
	c.Add(Counts{Dropped: 2, Delayed: 1})
	c.Add(Counts{Dropped: 1, Duplicated: 5, Crashed: 3})
	want := Counts{Dropped: 3, Duplicated: 5, Delayed: 1, Crashed: 3}
	if c != want {
		t.Errorf("Counts = %+v, want %+v", c, want)
	}
	if !c.Any() {
		t.Error("nonzero Counts reports !Any")
	}
}

func TestPlanTotals(t *testing.T) {
	p := New(1)
	p.AddCounts(Counts{Dropped: 4})
	p.AddCounts(Counts{Delayed: 2})
	if got := p.Totals(); got != (Counts{Dropped: 4, Delayed: 2}) {
		t.Errorf("Totals = %+v", got)
	}
}
