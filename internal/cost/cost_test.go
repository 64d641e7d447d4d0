package cost

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLedgerNestedTotals(t *testing.T) {
	l := New("run", "base rounds")
	l.Open("prep", "base rounds", 1)
	l.Charge(10)
	if got := l.CloseExpect(10); got != 10 {
		t.Fatalf("prep total %d, want 10", got)
	}
	rec := l.Open("recursion", "G0 rounds", 3)
	l.Charge(2)
	hop := l.NewChild(rec, "hops", "G1 rounds", 4)
	l.Add(hop, 5)
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
	if l.Total(Root) != total {
		t.Fatal("Total(Root) disagrees with Close")
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
	l.Add(Root, 1)
	if got, want := l.Total(Root), 1+l.Rolled(a)+l.Rolled(b); got != want {
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

// TestCloseExpectMatchAllocatesNothing: on a warm ledger — one whose rows
// already have room — opening, charging and closing spans, a matching
// CloseExpect (the span path is rendered for the violation message only)
// and attaching a small finished ledger allocate nothing.
func TestCloseExpectMatchAllocatesNothing(t *testing.T) {
	const runs = 100
	small := New("step", "base")
	small.Open("hop", "G0 rounds", 2)
	small.Charge(3)
	small.Close()
	small.Close()
	perRun := 3 + len(small.rows)

	l := New("root", "base")
	for cap(l.rows)-len(l.rows) < (runs+1)*perRun {
		l.Open("warm", "base", 1)
		l.Close()
	}
	allocs := testing.AllocsPerRun(runs, func() {
		l.Open("x", "base", 1)
		l.Charge(2)
		l.Close()
		l.Open("y", "base", 3)
		l.Open("z", "G0 rounds", 1)
		l.Attach(small, Root)
		l.CloseExpect(6)
		l.CloseExpect(6)
	})
	if allocs != 0 {
		t.Errorf("warm Open, Charge, Close, CloseExpect and Attach cost %.1f allocations, want 0", allocs)
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
	if l.Total(info) != 99 || l.Rolled(info) != 0 {
		t.Fatalf("informational span total %d rolled %d", l.Total(info), l.Rolled(info))
	}
	if l.Close() != 0 {
		t.Fatal("informational child leaked into the root total")
	}
}

// TestAttachCopiesOnlyTheSubtree: grafting an inner span copies its
// descendants and none of the later spans outside it, even those whose
// parent comes after it.
func TestAttachCopiesOnlyTheSubtree(t *testing.T) {
	src := New("src", "base")
	a := src.Open("a", "base", 2)
	src.Add(src.NewChild(a, "a1", "base", 1), 3)
	src.Close()
	b := src.Open("b", "base", 1)
	src.Add(src.NewChild(b, "b1", "base", 1), 5)
	src.Add(src.NewChild(a, "a2", "base", 1), 4)
	src.Close()
	src.Close()

	l := New("run", "base")
	l.Attach(src, a)
	l.Close()
	var paths []string
	for _, r := range l.Rows() {
		paths = append(paths, r.Path)
	}
	if got, want := strings.Join(paths, " "), "run run/a run/a/a1 run/a/a2"; got != want {
		t.Fatalf("rows %q, want %q", got, want)
	}
	if l.Total(Root) != 14 {
		t.Fatalf("root total %d, want 2·(3+4)", l.Total(Root))
	}
}

func TestAttachGraftsFinishedLedger(t *testing.T) {
	inner := New("step", "base")
	inner.Charge(4)
	inner.Close()

	outer := New("iteration", "base")
	st := outer.Open("tree-steps", "steps", 6)
	outer.Attach(inner, Root)
	outer.CloseExpect(4)
	if got := outer.Close(); got != 24 {
		t.Fatalf("grafted total %d, want 24", got)
	}
	if outer.Child(st, "step") == None {
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
	l.Add(sp, 2)
	l.Attach(New("x", ""), Root)
	if err := l.Err(); err == nil {
		t.Fatal("stack misuse went unrecorded")
	}
	if l.Total(Root) != 0 || len(l.Rows()) != 1 {
		t.Fatal("misuse mutated the closed table")
	}
}

func TestNilSafety(t *testing.T) {
	var l *Ledger
	l.Charge(1)
	l.Attach(nil, Root)
	l.Add(Root, 5)
	if l.Open("x", "", 1) != None || l.NewChild(Root, "x", "", 1) != None || l.Close() != 0 || l.CloseExpect(0) != 0 {
		t.Fatal("nil ledger produced spans or totals")
	}
	if l.Err() != nil || l.Rows() != nil || l.WallRows() != nil || l.Current() != None {
		t.Fatal("nil ledger not inert")
	}
	if l.Total(Root) != 0 || l.Rolled(Root) != 0 || l.Child(Root, "x") != None {
		t.Fatal("nil ledger's spans not inert")
	}
	live := New("root", "base")
	live.Add(None, 5)
	if live.Total(None) != 0 || live.Total(Root) != 0 || live.NewChild(None, "x", "", 1) != None {
		t.Fatal("None not inert")
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

// TestRowsPreorderAfterLateChild: a child added to an earlier span after
// later spans exist is exported under its parent, depth-first.
func TestRowsPreorderAfterLateChild(t *testing.T) {
	l := New("run", "base")
	a := l.Open("a", "base", 1)
	l.Close()
	l.Open("b", "base", 1)
	l.Close()
	l.Add(l.NewChild(a, "a1", "base", 2), 5)
	var paths []string
	for _, r := range l.Rows() {
		paths = append(paths, r.Path)
	}
	if got, want := strings.Join(paths, " "), "run run/a run/a/a1 run/b"; got != want {
		t.Fatalf("rows %q, want %q", got, want)
	}
	if l.Total(Root) != 10 {
		t.Fatalf("root total %d, want 10", l.Total(Root))
	}
}

// ---------------------------------------------------------------------
// The pointer-tree ledger the table replaced, kept as the reference the
// property tests hold the table to: one heap object per span, children
// by pointer, totals recomputed by walking the tree, grafts by reference.

type refSpan struct {
	Name, Unit string
	Self, Mul  int
	Children   []*refSpan
	wallNS     int64
	opened     time.Time
}

func (s *refSpan) NewChild(name, unit string, mul int) *refSpan {
	c := &refSpan{Name: name, Unit: unit, Mul: mul}
	s.Children = append(s.Children, c)
	return c
}

func (s *refSpan) Add(n int) { s.Self += n }

func (s *refSpan) Total() int {
	t := s.Self
	for _, c := range s.Children {
		t += c.Rolled()
	}
	return t
}

func (s *refSpan) Rolled() int { return s.Mul * s.Total() }

type refLedger struct {
	Root       *refSpan
	stack      []*refSpan
	violations []string
}

func newRef(name, unit string) *refLedger {
	root := &refSpan{Name: name, Unit: unit, Mul: 1, opened: now()}
	return &refLedger{Root: root, stack: []*refSpan{root}}
}

func (l *refLedger) current() *refSpan {
	if len(l.stack) == 0 {
		return nil
	}
	return l.stack[len(l.stack)-1]
}

func (l *refLedger) violate(format string, args ...any) {
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
}

func (l *refLedger) Open(name, unit string, mul int) *refSpan {
	cur := l.current()
	if cur == nil {
		l.violate("cost: Open(%q) after the root span closed", name)
		return &refSpan{Name: name, Unit: unit, Mul: mul}
	}
	c := cur.NewChild(name, unit, mul)
	c.opened = now()
	l.stack = append(l.stack, c)
	return c
}

func (l *refLedger) Charge(n int) {
	cur := l.current()
	if cur == nil {
		l.violate("cost: Charge(%d) with no open span", n)
		return
	}
	cur.Self += n
}

func (l *refLedger) Attach(s *refSpan) {
	cur := l.current()
	if cur == nil {
		l.violate("cost: Attach(%q) with no open span", s.Name)
		return
	}
	cur.Children = append(cur.Children, s)
}

func (l *refLedger) Close() int {
	cur := l.current()
	if cur == nil {
		l.violate("cost: Close with no open span")
		return 0
	}
	if !cur.opened.IsZero() {
		cur.wallNS += now().Sub(cur.opened).Nanoseconds()
		cur.opened = time.Time{}
	}
	l.stack = l.stack[:len(l.stack)-1]
	return cur.Total()
}

func (l *refLedger) CloseExpect(want int) int {
	names := make([]string, len(l.stack))
	for i, s := range l.stack {
		names[i] = s.Name
	}
	got := l.Close()
	if got != want {
		l.violate("cost: span %s totals %d rounds, call site expected %d", strings.Join(names, "/"), got, want)
	}
	return got
}

func (l *refLedger) Err() error {
	if len(l.violations) == 0 {
		return nil
	}
	return errors.New(strings.Join(l.violations, "; "))
}

// rows flattens the reference tree the way the pointer ledger exported it.
func (l *refLedger) rows() ([]Row, []WallRow) {
	var rows []Row
	var walls []WallRow
	var walk func(sp *refSpan, prefix string, depth int)
	walk = func(sp *refSpan, prefix string, depth int) {
		path := sp.Name
		if prefix != "" {
			path = prefix + "/" + sp.Name
		}
		rows = append(rows, Row{Path: path, Unit: sp.Unit, Depth: depth,
			Self: sp.Self, Mul: sp.Mul, Total: sp.Total(), Rolled: sp.Rolled()})
		walls = append(walls, WallRow{Path: path, WallNS: sp.wallNS})
		for _, c := range sp.Children {
			walk(c, path, depth+1)
		}
	}
	walk(l.Root, "", 0)
	return rows, walls
}

// ---------------------------------------------------------------------
// Random programs run on both ledgers.

// pair is one ledger of each kind driven by the same program, with the
// spans the program holds: spans[i] and refs[i] are one span.
type pair struct {
	led   *Ledger
	ref   *refLedger
	spans []int
	refs  []*refSpan
}

func newPair(name, unit string) *pair {
	p := &pair{led: New(name, unit), ref: newRef(name, unit)}
	p.hold(Root, p.ref.Root)
	return p
}

func (p *pair) hold(s int, r *refSpan) {
	p.spans, p.refs = append(p.spans, s), append(p.refs, r)
}

var (
	progNames = []string{"a", "b", "route", "", "tree-steps", "x/y"}
	progUnits = []string{"base rounds", "G0 rounds", "", "steps"}
)

// program reads ops from next until it returns a negative byte and runs
// them on p. clock advances the fake clock; depth bounds nested Attach
// programs. A held span is named by a byte modulo the spans held.
func (p *pair) program(next func() int, clock func(time.Duration), depth int) {
	arg := func() int { return max(next(), 0) }
	mul := func() int { return [...]int{0, 1, 1, 2, 3, 7}[arg()%6] }
	name := func() string { return progNames[arg()%len(progNames)] }
	unit := func() string { return progUnits[arg()%len(progUnits)] }
	for op := next(); op >= 0; op = next() {
		switch op % 9 {
		case 0:
			n, u, m := name(), unit(), mul()
			p.hold(p.led.Open(n, u, m), p.ref.Open(n, u, m))
		case 1:
			n := arg() - 100
			p.led.Charge(n)
			p.ref.Charge(n)
		case 2:
			i, n := arg()%len(p.spans), arg()
			p.led.Add(p.spans[i], n)
			p.refs[i].Add(n)
		case 3:
			i, n, u, m := arg()%len(p.spans), name(), unit(), mul()
			p.hold(p.led.NewChild(p.spans[i], n, u, m), p.refs[i].NewChild(n, u, m))
		case 4:
			p.led.Close()
			p.ref.Close()
		case 5:
			want := arg() % 2
			if cur := p.ref.current(); cur != nil {
				want += cur.Total()
			}
			p.led.CloseExpect(want)
			p.ref.CloseExpect(want)
		case 6:
			clock(time.Duration(arg()+1) * time.Microsecond)
		case 7, 8:
			if depth == 0 {
				continue
			}
			// The sub-program reads at most n ops of its own, so the
			// choice of span to graft below comes from the rest.
			sub, n := newPair(name(), unit()), arg()%24
			sub.program(func() int {
				if n--; n < 0 {
					return -1
				}
				return next()
			}, clock, depth-1)
			for sub.led.Current() != None {
				sub.led.Close()
				sub.ref.Close()
			}
			// Graft the root or another span of the sub-table; a span the
			// sub-program opened after its root closed belongs to no table.
			i := arg() % len(sub.spans)
			if sub.spans[i] == None {
				i = 0
			}
			p.led.Attach(sub.led, sub.spans[i])
			p.ref.Attach(sub.refs[i])
		}
	}
}

// check holds the table to the reference: equal rows, wall rows, totals
// of every held span and violations, and every row's total equal to its
// self plus its children's rolled totals.
func (p *pair) check(t *testing.T) {
	t.Helper()
	got, gotWall := p.led.Rows(), p.led.WallRows()
	want, wantWall := p.ref.rows()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows\n got %v\nwant %v", got, want)
	}
	if fmt.Sprint(gotWall) != fmt.Sprint(wantWall) {
		t.Fatalf("wall rows\n got %v\nwant %v", gotWall, wantWall)
	}
	for i, s := range p.spans {
		if s != None && (p.led.Total(s) != p.refs[i].Total() || p.led.Rolled(s) != p.refs[i].Rolled()) {
			t.Fatalf("span %d: total %d rolled %d, reference %d and %d",
				s, p.led.Total(s), p.led.Rolled(s), p.refs[i].Total(), p.refs[i].Rolled())
		}
	}
	if fmt.Sprint(p.led.Err()) != fmt.Sprint(p.ref.Err()) {
		t.Fatalf("violations\n got %v\nwant %v", p.led.Err(), p.ref.Err())
	}
	// Sum of children, on the pre-order rows: sums[d] collects depth d's
	// open row's children.
	var open []int
	var sums []int
	settle := func(depth int) {
		for len(open) > depth {
			k := len(open) - 1
			if r := got[open[k]]; r.Self+sums[k] != r.Total {
				t.Fatalf("row %s: self %d + children %d != total %d", r.Path, r.Self, sums[k], r.Total)
			}
			open, sums = open[:k], sums[:k]
		}
	}
	for i, r := range got {
		settle(r.Depth)
		if r.Depth > 0 {
			sums[r.Depth-1] += r.Rolled
		}
		open, sums = append(open, i), append(sums, 0)
	}
	settle(0)
}

// runProgram runs the program in data on a fresh pair under a fake clock.
func runProgram(t *testing.T, data []byte) {
	advance := fakeClock(t)
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return -1
		}
		pos++
		return int(data[pos-1])
	}
	p := newPair("run", "base rounds")
	p.program(next, advance, 2)
	p.check(t)
	for p.led.Current() != None {
		advance(time.Microsecond)
		p.led.Close()
		p.ref.Close()
	}
	p.check(t)
}

// FuzzLedger holds the table ledger to the pointer-tree reference on
// random programs of Open, Charge, Add, NewChild, Close, CloseExpect and
// Attach (the last from nested programs), misuse after the root closes
// included.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 150, 4, 5, 1})
	f.Add([]byte{0, 0, 3, 2, 0, 3, 2, 1, 1, 5, 7, 3, 0, 1, 1, 4, 255, 4, 4, 0, 1})
	f.Add([]byte{4, 1, 1, 0, 2, 2, 3, 2, 5, 0, 7, 1, 0, 4, 0, 0, 5, 1})
	f.Add([]byte{0, 4, 3, 5, 8, 2, 1, 0, 3, 2, 0, 255, 6, 9, 4, 255, 2, 9, 1, 0, 5, 0})
	f.Fuzz(runProgram)
}

// TestLedgerMatchesReference is FuzzLedger's property on random programs
// drawn by testing/quick.
func TestLedgerMatchesReference(t *testing.T) {
	prop := func(data []byte) bool {
		runProgram(t, data)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
