// Package cost is the embedded tier's round ledger: one table of spans
// that is the single source of truth for every base-graph round the
// embedded-tier algorithms charge (DESIGN.md §3, system S21).
//
// A span is a fixed-size row, named by its index (Root, 0, is the span
// New opens): its parent's index, a name, a unit (base rounds, G0 rounds,
// routing steps, …), the amount Self charged to it directly and a
// multiplier Mul converting one round of its unit into the parent's unit.
// Its Total is Self plus its children rolled up through their
// multipliers, so the emulation-factor chains of Lemmas 3.1/3.2/3.4 (one
// Gℓ round = EmulationRounds rounds of G_{ℓ−1}, one MST tree step = one
// measured routing instance, …) become table structure instead of
// arithmetic repeated at call sites. A charge adds itself to every total
// up the parent chain, so Total and Rolled read one field.
//
// Layers Open and Close spans in a stack discipline, or add a held child
// (NewChild) and Add to it out of order. CloseExpect turns the call
// site's legacy formula into a checked identity: a rolled-up total that
// disagrees with it is recorded as a violation, so scattered accounting
// never silently drifts from the exported breakdown. Attach copies a
// finished span of another ledger, subtree included, under the current
// span. No call allocates an object per span: a ledger's first rows live
// inside it, more grow in a pooled buffer while the root is open, and
// closing the root moves them into one slice of their size.
//
// A span with Mul == 0 is informational: it is exported with the
// breakdown but contributes nothing to its parent (used for the measured
// per-level emulation factors, which are conversion rates, not charges).
package cost

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// now is the ledger's clock, swappable by tests. Its monotonic reading
// keeps span wall times immune to wall-clock steps.
var now = time.Now

// Root is every ledger's root span. None is no span, which Open returns
// once the root has closed and every method taking a span ignores.
const Root, None = 0, -1

// row is one span: total is self plus every child's mul·total, unit an
// index into the ledger's units.
type row struct {
	name             string
	self, mul, total int
	parent, unit     int32
}

// frame is an open span and when it opened, in ns since the ledger began.
type frame struct {
	span  int32
	start int64
}

// Ledger is a span table with open/close stack discipline. It records
// invariant violations instead of panicking, so algorithm code surfaces
// them as ordinary errors after the run.
type Ledger struct {
	rows []row
	// wall[s] is the ns span s was open, children included, zero until
	// it closes: out of Row, so -trace stays byte deterministic, and out
	// through WallRows into -metrics.
	wall       []int64
	units      []string
	open       []frame // the open spans, Root first
	t0         time.Time
	buf        *buffer  // backs rows and wall past small until Root closes
	violations []string // CloseExpect mismatches and stack misuse

	// A routing run's rows (route, prep, recursion, a portal-hop span a
	// level, leaf movement) fit in small on up to two levels.
	small      [6]row
	smallWall  [6]int64
	smallUnits [4]string
	frames     [6]frame
}

type buffer struct { // growth storage of open ledgers, pooled (E38)
	rows []row
	wall []int64
}

var buffers = sync.Pool{New: func() any { return new(buffer) }}

// New returns a ledger whose root span is open and current.
func New(name, unit string) *Ledger {
	l := &Ledger{t0: now()}
	l.rows, l.wall, l.units, l.open = l.small[:0], l.smallWall[:0], l.smallUnits[:0], l.frames[:0]
	l.push(None, name, unit, 1)
	l.open = append(l.open, frame{span: Root})
	return l
}

// push appends a span and returns its index.
func (l *Ledger) push(parent int, name, unit string, mul int) int {
	if len(l.rows) == cap(l.rows) && l.buf == nil && len(l.open) > 0 {
		l.buf = buffers.Get().(*buffer)
		l.buf.rows = append(l.buf.rows[:0], l.rows...)
		l.buf.wall = append(l.buf.wall[:0], l.wall...)
		l.rows, l.wall = l.buf.rows, l.buf.wall
	}
	u := len(l.units) - 1
	for u >= 0 && l.units[u] != unit {
		u--
	}
	if u < 0 {
		u, l.units = len(l.units), append(l.units, unit)
	}
	l.rows = append(l.rows, row{name: name, mul: mul, parent: int32(parent), unit: int32(u)})
	l.wall = append(l.wall, 0)
	if l.buf != nil {
		l.buf.rows, l.buf.wall = l.rows, l.wall
	}
	return len(l.rows) - 1
}

// valid reports whether s names a span of l.
func (l *Ledger) valid(s int) bool { return l != nil && s >= 0 && s < len(l.rows) }

// roll adds n to span s's total and, scaled by each multiplier on the
// way, to every ancestor's.
func (l *Ledger) roll(s, n int) {
	for ; s >= 0 && n != 0; s = int(l.rows[s].parent) {
		l.rows[s].total += n
		n *= l.rows[s].mul
	}
}

// Current returns the innermost open span, or None when all are closed.
func (l *Ledger) Current() int {
	if l == nil || len(l.open) == 0 {
		return None
	}
	return int(l.open[len(l.open)-1].span)
}

// NewChild appends a child of span s off the stack and returns it, for
// callers that Add to it out of order (charges from within a recursion).
func (l *Ledger) NewChild(s int, name, unit string, mul int) int {
	if !l.valid(s) {
		return None
	}
	return l.push(s, name, unit, mul)
}

// Add charges n rounds (in its unit) directly to span s; None ignores it.
func (l *Ledger) Add(s, n int) {
	if l.valid(s) {
		l.rows[s].self += n
		l.roll(s, n)
	}
}

// at returns span s's row, zero for None.
func (l *Ledger) at(s int) row {
	if !l.valid(s) {
		return row{}
	}
	return l.rows[s]
}

// Total is span s's cost in its own unit: Self plus its children rolled.
func (l *Ledger) Total(s int) int { return l.at(s).total }

// Rolled is span s's contribution to its parent: Mul · Total.
func (l *Ledger) Rolled(s int) int { return l.at(s).mul * l.at(s).total }

// Child returns the first child of span s with the given name, or None.
func (l *Ledger) Child(s int, name string) int {
	for c := s + 1; l.valid(s) && c < len(l.rows); c++ {
		if int(l.rows[c].parent) == s && l.rows[c].name == name {
			return c
		}
	}
	return None
}

func (l *Ledger) violate(format string, args ...any) {
	if l != nil {
		l.violations = append(l.violations, fmt.Sprintf(format, args...))
	}
}

// Open creates a child of the current span and makes it current. Opening
// on a fully closed ledger records a violation and returns None.
func (l *Ledger) Open(name, unit string, mul int) int {
	cur := l.Current()
	if cur == None {
		l.violate("cost: Open(%q) after the root span closed", name)
		return None
	}
	s := l.push(cur, name, unit, mul)
	l.open = append(l.open, frame{span: int32(s), start: now().Sub(l.t0).Nanoseconds()})
	return s
}

// Charge adds n rounds to the current span.
func (l *Ledger) Charge(n int) {
	if cur := l.Current(); cur != None {
		l.Add(cur, n)
	} else {
		l.violate("cost: Charge(%d) with no open span", n)
	}
}

// Attach copies span s of the finished ledger src, with its subtree and
// wall times, under the current span, where its Mul applies as usual.
func (l *Ledger) Attach(src *Ledger, s int) {
	if l == nil || !src.valid(s) {
		return
	}
	cur := l.Current()
	if cur == None {
		l.violate("cost: Attach(%q) with no open span", src.rows[s].name)
		return
	}
	// at[j-s] is src span j's index here, None outside the subtree.
	var small [64]int32
	at := small[:0]
	for j, n := s, len(src.rows); j < n; j++ {
		r, p := src.rows[j], cur
		if j > s {
			if r.parent < int32(s) || at[int(r.parent)-s] == None {
				at = append(at, None)
				continue
			}
			p = int(at[int(r.parent)-s])
		}
		c := l.push(p, r.name, src.units[r.unit], r.mul)
		l.rows[c].self, l.rows[c].total, l.wall[c] = r.self, r.total, src.wall[j]
		at = append(at, int32(c))
	}
	l.roll(cur, src.Rolled(s))
}

// Close closes the current span and returns its Total (own units).
func (l *Ledger) Close() int {
	if l == nil || len(l.open) == 0 {
		l.violate("cost: Close with no open span")
		return 0
	}
	f := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.wall[f.span] += now().Sub(l.t0).Nanoseconds() - f.start
	if len(l.open) == 0 && l.buf != nil {
		l.rows, l.wall = append([]row(nil), l.rows...), append([]int64(nil), l.wall...)
		buffers.Put(l.buf)
		l.buf = nil
	}
	return l.rows[f.span].total
}

// CloseExpect closes the current span and returns its Total, recording a
// violation unless it equals want (in the span's own unit). A matching
// close allocates nothing: the path is rendered only for the message.
func (l *Ledger) CloseExpect(want int) int {
	s := l.Current()
	got := l.Close()
	if got != want {
		path, sep := "", ""
		for ; s != None; s, sep = int(l.rows[s].parent), "/" {
			path = l.rows[s].name + sep + path
		}
		l.violate("cost: span %s totals %d rounds, call site expected %d", path, got, want)
	}
	return got
}

// Err reports every recorded invariant violation, or nil.
func (l *Ledger) Err() error {
	if l == nil || len(l.violations) == 0 {
		return nil
	}
	return errors.New(strings.Join(l.violations, "; "))
}

// Row is one flattened span for export: the slash-joined path from the
// root, the span's own-unit amounts, and its rolled-up contribution.
type Row struct {
	Path   string `json:"path"`
	Unit   string `json:"unit,omitempty"`
	Depth  int    `json:"depth"`
	Self   int    `json:"self"`
	Mul    int    `json:"mul"`
	Total  int    `json:"total"`
	Rolled int    `json:"rolled"`
}

// WallRow is a span's path and host time. WallRows' paths are Rows',
// index for index: a trace row and its -metrics wall counter pair by path.
type WallRow struct {
	Path   string
	WallNS int64
}

// Rows flattens the ledger for export, depth-first pre-order.
func (l *Ledger) Rows() []Row {
	var rows []Row
	l.preorder(func(s int, path string, depth int) {
		r := &l.rows[s]
		rows = append(rows, Row{Path: path, Unit: l.units[r.unit], Depth: depth,
			Self: r.self, Mul: r.mul, Total: r.total, Rolled: r.mul * r.total})
	})
	return rows
}

// WallRows flattens the ledger's host times like Rows.
func (l *Ledger) WallRows() []WallRow {
	var rows []WallRow
	l.preorder(func(s int, path string, _ int) {
		rows = append(rows, WallRow{Path: path, WallNS: l.wall[s]})
	})
	return rows
}

// preorder visits every span with its path and depth, depth-first from
// the root and children in creation order: the walk Rows and WallRows share.
func (l *Ledger) preorder(visit func(s int, path string, depth int)) {
	if l == nil {
		return
	}
	// first[s] is s's first child and next[c] c's next sibling, Root for
	// none, linked back to front so each list runs in creation order.
	first, next := make([]int32, len(l.rows)), make([]int32, len(l.rows))
	for s := len(l.rows) - 1; s > Root; s-- {
		p := l.rows[s].parent
		next[s], first[p] = first[p], int32(s)
	}
	var walk func(s int32, prefix string, depth int)
	walk = func(s int32, prefix string, depth int) {
		path := l.rows[s].name
		if prefix != "" {
			path = prefix + "/" + path
		}
		visit(int(s), path, depth)
		for c := first[s]; c != Root; c = next[c] {
			walk(c, path, depth+1)
		}
	}
	walk(Root, "", 0)
}
