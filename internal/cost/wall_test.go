package cost

import (
	"testing"
	"time"
)

// fakeClock pins the package clock to a controllable instant and returns
// an advance function plus the restore hook.
func fakeClock(t *testing.T) func(d time.Duration) {
	t.Helper()
	cur := time.Unix(1_000_000, 0)
	old := now
	now = func() time.Time { return cur }
	t.Cleanup(func() { now = old })
	return func(d time.Duration) { cur = cur.Add(d) }
}

// wallOf reads the wall row at path.
func wallOf(l *Ledger, path string) time.Duration {
	for _, w := range l.WallRows() {
		if w.Path == path {
			return time.Duration(w.WallNS)
		}
	}
	return -1
}

// TestSpanWallClock: Open..Close brackets accumulate host time on the
// span, inclusive of time spent in children, without ever entering the
// round totals.
func TestSpanWallClock(t *testing.T) {
	advance := fakeClock(t)
	l := New("run", "base rounds")
	outer := l.Open("outer", "base rounds", 1)
	advance(5 * time.Millisecond)
	l.Open("inner", "base rounds", 1)
	l.Charge(7)
	advance(3 * time.Millisecond)
	l.CloseExpect(7) // inner: 3ms
	advance(2 * time.Millisecond)
	l.Close() // outer: 5+3+2 = 10ms
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if got := wallOf(l, "run/outer/inner"); got != 3*time.Millisecond {
		t.Fatalf("inner wall %v, want 3ms", got)
	}
	if got := wallOf(l, "run/outer"); got != 10*time.Millisecond {
		t.Fatalf("outer wall %v, want 10ms", got)
	}
	// Wall time never leaks into the simulated-round accounting.
	if l.Total(outer) != 7 {
		t.Fatalf("outer total %d, want 7", l.Total(outer))
	}
}

// TestSpanWallOpenReadsZero: a span that is still open reads zero until
// it closes.
func TestSpanWallOpenReadsZero(t *testing.T) {
	advance := fakeClock(t)
	l := New("run", "r")
	l.Open("busy", "r", 1)
	advance(time.Second)
	if got := wallOf(l, "run/busy"); got != 0 {
		t.Fatalf("open span wall %v, want 0 until closed", got)
	}
	l.Close()
	if got := wallOf(l, "run/busy"); got != time.Second {
		t.Fatalf("closed span wall %v, want 1s", got)
	}
}

// TestNewChildNeverOpenedStaysZero: spans built directly with NewChild
// (analytic accounting, no ledger bracket) never accrue wall time.
func TestNewChildNeverOpenedStaysZero(t *testing.T) {
	advance := fakeClock(t)
	l := New("run", "r")
	child := l.NewChild(l.Current(), "analytic", "r", 2)
	l.Add(child, 5)
	advance(time.Hour)
	l.Close()
	if got := wallOf(l, "run/analytic"); got != 0 {
		t.Fatalf("NewChild span wall %v, want 0", got)
	}
}

// TestFlattenWallPathsMatchFlatten: the wall export walks the same
// pre-order with the same slash paths as the round export, so a trace row
// and its metrics wall counter pair by path string equality.
func TestFlattenWallPathsMatchFlatten(t *testing.T) {
	advance := fakeClock(t)
	l := New("run", "r")
	l.Open("a", "r", 1)
	l.Open("a1", "r", 1)
	advance(time.Millisecond)
	l.Close()
	l.Close()
	l.Open("b", "r", 3)
	l.Add(l.NewChild(l.Current(), "b-analytic", "r", 1), 2)
	advance(2 * time.Millisecond)
	l.Close()

	rows := l.Rows()
	walls := l.WallRows()
	if len(rows) != len(walls) {
		t.Fatalf("%d rows vs %d wall rows", len(rows), len(walls))
	}
	for i := range rows {
		if rows[i].Path != walls[i].Path {
			t.Fatalf("row %d path %q != wall path %q", i, rows[i].Path, walls[i].Path)
		}
	}
	// Spot checks: the bracketed spans carry their durations, the
	// analytic child stays zero.
	byPath := map[string]int64{}
	for _, w := range walls {
		byPath[w.Path] = w.WallNS
	}
	if byPath["run/a/a1"] != int64(time.Millisecond) {
		t.Fatalf("a1 wall %d", byPath["run/a/a1"])
	}
	if byPath["run/b"] != int64(2*time.Millisecond) {
		t.Fatalf("b wall %d", byPath["run/b"])
	}
	if byPath["run/b/b-analytic"] != 0 {
		t.Fatalf("analytic wall %d, want 0", byPath["run/b/b-analytic"])
	}
}

// TestRowHasNoWallField guards the determinism contract at the type
// level's behavioral edge: two ledgers doing identical simulated work at
// different host speeds flatten to identical Rows.
func TestRowHasNoWallField(t *testing.T) {
	build := func(advanceBy time.Duration) []Row {
		advance := fakeClock(t)
		l := New("run", "r")
		l.Open("work", "r", 1)
		l.Charge(4)
		advance(advanceBy)
		l.Close()
		l.Close()
		return l.Rows()
	}
	fast := build(time.Nanosecond)
	slow := build(time.Hour)
	if len(fast) != len(slow) {
		t.Fatal("row counts differ")
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("row %d differs under host-speed change: %+v vs %+v", i, fast[i], slow[i])
		}
	}
}
