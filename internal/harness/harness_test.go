package harness

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "graph", "n", "rounds")
	tb.AddRow("ring", 16, 120)
	tb.AddRow("expander", 1024, 42.5)
	out := tb.String()
	if !strings.Contains(out, "## demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "expander") || !strings.Contains(out, "42.5") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2)
	want := "a,b\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// TestTableCSVEscaping: cells containing separators, quotes or line
// breaks must come out RFC-4180 quoted, with embedded quotes doubled.
func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.AddRow("a,b", `say "hi"`)
	tb.AddRow("line\nbreak", "cr\r\nlf")
	tb.AddRow("plain", 3.5)
	want := "name,note\n" +
		`"a,b","say ""hi"""` + "\n" +
		"\"line\nbreak\",\"cr\r\nlf\"\n" +
		"plain,3.5\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV escaping:\n got %q\nwant %q", got, want)
	}
}

// Headers go through the same escaping as data cells.
func TestTableCSVEscapesHeader(t *testing.T) {
	tb := NewTable("", "a,b", "c")
	tb.AddRow(1, 2)
	want := "\"a,b\",c\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 3·x²: slope 2.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if s, n := LogLogSlope(xs, ys); math.Abs(s-2) > 1e-9 || n != len(xs) {
		t.Fatalf("slope %v with %d pts, want 2 with %d", s, n, len(xs))
	}
	// Constants have slope 0.
	if s, _ := LogLogSlope(xs, []float64{5, 5, 5, 5, 5}); math.Abs(s) > 1e-9 {
		t.Fatalf("constant slope %v", s)
	}
	// Degenerate inputs.
	if s, n := LogLogSlope([]float64{1}, []float64{1}); !math.IsNaN(s) || n != 1 {
		t.Fatalf("single point: slope %v, used %d, want NaN, 1", s, n)
	}
	if s, n := LogLogSlope(xs, []float64{0, 0, 0, 0, 0}); !math.IsNaN(s) || n != 0 {
		t.Fatalf("nonpositive ys: slope %v, used %d, want NaN, 0", s, n)
	}
	if s, n := LogLogSlope(xs, []float64{1, 2}); !math.IsNaN(s) || n != 0 {
		t.Fatalf("length mismatch: slope %v, used %d, want NaN, 0", s, n)
	}
	// Dropped samples must be visible in the used count, not silent: a
	// zero measurement in an otherwise clean series still fits, but the
	// caller sees 4/5 points.
	ysDrop := []float64{3, 0, 48, 192, 768}
	if s, n := LogLogSlope(xs, ysDrop); math.Abs(s-2) > 1e-9 || n != 4 {
		t.Fatalf("dropped sample: slope %v, used %d, want 2, 4", s, n)
	}
	// Identical x values give a vertical line: NaN but a full used count.
	if s, n := LogLogSlope([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(s) || n != 3 {
		t.Fatalf("degenerate xs: slope %v, used %d, want NaN, 3", s, n)
	}
}
