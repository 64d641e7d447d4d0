// Package harness provides the small utilities the experiment binaries
// and benchmarks share: aligned table rendering, CSV export and log-log
// scaling fits.
package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns, in the
// style of the paper's result tables.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, floats with %.3g.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// CSV renders the table as RFC-4180 comma-separated values: cells
// containing a comma, quote or line break are quoted, with embedded
// quotes doubled, so free-text cells (run labels, phase names) survive
// round-tripping through standard CSV readers.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// csvEscape quotes a cell per RFC 4180 when it contains a delimiter,
// quote or line break.
func csvEscape(cell string) string {
	if !strings.ContainsAny(cell, ",\"\r\n") {
		return cell
	}
	return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
}

// LogLogSlope fits ln(y) = a + s·ln(x) by least squares and returns the
// slope s — the empirical scaling exponent of a measurement series —
// together with the number of points actually used by the fit.
// Non-positive samples have no logarithm and are excluded; used < len(xs)
// tells the caller the exponent describes only part of its series rather
// than silently fitting a subset. The slope is NaN when fewer than two
// usable points remain (or the series lengths differ, with used = 0).
func LogLogSlope(xs, ys []float64) (slope float64, used int) {
	if len(xs) != len(ys) {
		return math.NaN(), 0
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN(), n
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return math.NaN(), n
	}
	return (fn*sxy - sx*sy) / den, n
}
