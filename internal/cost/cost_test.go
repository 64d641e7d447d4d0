package cost

import "testing"

func TestLedgerNestedTotals(t *testing.T) {
	l := New("run", "base rounds")
	l.Open("prep", "base rounds", 1)
	l.Charge(10)
	if got := l.CloseExpect(10); got != 10 {
		t.Fatalf("prep total %d, want 10", got)
	}
	rec := l.Open("recursion", "G0 rounds", 3)
	l.Charge(2)
	hop := rec.NewChild("hops", "G1 rounds", 4)
	hop.Add(5)
	if got := l.CloseExpect(2 + 5*4); got != 22 {
		t.Fatalf("recursion total %d, want 22", got)
	}
	total := l.Close()
	if want := 10 + 22*3; total != want {
		t.Fatalf("root total %d, want %d", total, want)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("clean ledger reports error: %v", err)
	}
	if l.Root.Total() != total {
		t.Fatal("Root.Total disagrees with Close")
	}
}

func TestChildrenSumToParent(t *testing.T) {
	l := New("root", "base")
	a := l.Open("a", "base", 1)
	l.Charge(3)
	l.Close()
	b := l.Open("b", "sub", 5)
	l.Charge(2)
	l.Close()
	l.Root.Add(1)
	if got, want := l.Root.Total(), 1+a.Rolled()+b.Rolled(); got != want {
		t.Fatalf("parent total %d != self + children %d", got, want)
	}
}

func TestCloseExpectViolation(t *testing.T) {
	l := New("root", "base")
	l.Open("x", "base", 1)
	l.Charge(7)
	if got := l.CloseExpect(8); got != 7 {
		t.Fatalf("CloseExpect returned %d, want the actual total 7", got)
	}
	err := l.Err()
	if err == nil {
		t.Fatal("mismatched CloseExpect reported no violation")
	}
	if want := "cost: span root/x totals 7 rounds, call site expected 8"; err.Error() != want {
		t.Fatalf("violation %q, want %q", err, want)
	}
}

// TestCloseExpectMatchAllocatesNothing: the span path is rendered for the
// violation message only, so a close that matches allocates nothing.
func TestCloseExpectMatchAllocatesNothing(t *testing.T) {
	const runs = 100
	l := New("root", "base")
	for i := 0; i <= runs; i++ { // AllocsPerRun closes one more span than runs
		l.Open("x", "base", 1)
	}
	if allocs := testing.AllocsPerRun(runs, func() { l.CloseExpect(0) }); allocs != 0 {
		t.Errorf("a matching CloseExpect costs %.1f allocations, want 0", allocs)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestInformationalSpanRollsZero(t *testing.T) {
	l := New("root", "base")
	info := l.Open("factors", "", 0)
	l.Charge(99)
	l.Close()
	if info.Total() != 99 || info.Rolled() != 0 {
		t.Fatalf("informational span total %d rolled %d", info.Total(), info.Rolled())
	}
	if l.Close() != 0 {
		t.Fatal("informational child leaked into the root total")
	}
}

func TestAttachGraftsFinishedLedger(t *testing.T) {
	inner := New("step", "base")
	inner.Charge(4)
	inner.Close()

	outer := New("iteration", "base")
	st := outer.Open("tree-steps", "steps", 6)
	outer.Attach(inner.Root)
	outer.CloseExpect(4)
	if got := outer.Close(); got != 24 {
		t.Fatalf("grafted total %d, want 24", got)
	}
	if st.Child("step") == nil {
		t.Fatal("attached span not reachable via Child")
	}
	if err := outer.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStackMisuseIsRecordedNotPanicking(t *testing.T) {
	l := New("root", "base")
	l.Close()
	l.Charge(1)
	l.Close()
	sp := l.Open("late", "base", 1)
	sp.Add(2)
	l.Attach(&Span{Name: "x"})
	if err := l.Err(); err == nil {
		t.Fatal("stack misuse went unrecorded")
	}
	if l.Root.Total() != 0 {
		t.Fatal("misuse mutated the closed tree")
	}
}

func TestNilSafety(t *testing.T) {
	var l *Ledger
	var s *Span
	l.Charge(1)
	l.Attach(nil)
	if l.Open("x", "", 1) != nil || l.Close() != 0 || l.CloseExpect(0) != 0 {
		t.Fatal("nil ledger produced spans or totals")
	}
	if l.Err() != nil || l.Rows() != nil || l.Current() != nil {
		t.Fatal("nil ledger not inert")
	}
	s.Add(5)
	if s.Total() != 0 || s.Rolled() != 0 || s.Child("x") != nil {
		t.Fatal("nil span not inert")
	}
	if rows := Flatten(nil); rows != nil {
		t.Fatal("Flatten(nil) produced rows")
	}
}

func TestFlattenRows(t *testing.T) {
	l := New("run", "base")
	l.Open("a", "base", 1)
	l.Charge(2)
	l.Open("b", "sub", 3)
	l.Charge(4)
	l.Close()
	l.Close()
	l.Close()
	rows := l.Rows()
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if rows[0].Path != "run" || rows[0].Depth != 0 || rows[0].Total != 14 {
		t.Fatalf("root row %+v", rows[0])
	}
	if rows[1].Path != "run/a" || rows[1].Self != 2 || rows[1].Total != 14 || rows[1].Rolled != 14 {
		t.Fatalf("a row %+v", rows[1])
	}
	if rows[2].Path != "run/a/b" || rows[2].Depth != 2 || rows[2].Total != 4 || rows[2].Rolled != 12 {
		t.Fatalf("b row %+v", rows[2])
	}
}
