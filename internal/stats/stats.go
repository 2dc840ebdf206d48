// Package stats provides the aggregations, confidence intervals and
// plain-text table rendering used by the simulator and the experiment
// harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of the positive entries of xs and
// whether it is defined (at least one positive entry); non-positive
// entries are skipped. Callers that render an undefined mean as absent
// pass the pair to NaNIfUndefined.
func Geomean(xs []float64) (float64, bool) {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return math.Exp(sum / float64(n)), true
}

// Amean returns the arithmetic mean of xs, or 0 for an empty input.
func Amean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// RatioOK returns num/den and whether the ratio is defined (den != 0).
func RatioOK(num, den float64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// NaNIfUndefined maps an undefined (value, ok=false) pair to NaN, the
// form the metrics registry's gauges treat as "absent" when exporting.
func NaNIfUndefined(v float64, ok bool) float64 {
	if !ok {
		return math.NaN()
	}
	return v
}

// Table accumulates rows of cells and renders them with aligned columns —
// the shape in which the experiment harness reproduces the paper's tables
// and figure series.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row of preformatted cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row formatting each value: strings verbatim, float64
// with %.2f, everything else with %v.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Render produces the aligned plain-text form of the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteString("\n")
	}
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Bar renders value as a proportional ASCII bar of at most width cells,
// scaled so that scale maps to the full width. Negative values and a
// non-positive scale yield an empty bar. Useful for rendering the paper's
// speedup figures as text.
func Bar(value, scale float64, width int) string {
	if width <= 0 || scale <= 0 || value <= 0 {
		return ""
	}
	cells := int(value / scale * float64(width))
	if cells > width {
		cells = width
	}
	return strings.Repeat("#", cells)
}

// RenderMarkdown produces the GitHub-flavored-markdown form of the table,
// used to regenerate EXPERIMENTS.md.
func (t *Table) RenderMarkdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	cols := len(t.header)
	for _, row := range t.rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	if cols == 0 {
		return b.String()
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(" " + c + " |")
		}
		b.WriteString("\n")
	}
	header := t.header
	if len(header) == 0 {
		header = make([]string, cols)
	}
	writeRow(header)
	b.WriteString("|")
	for i := 0; i < cols; i++ {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
