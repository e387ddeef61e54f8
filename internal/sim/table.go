package sim

import (
	"fmt"
	"strings"
)

// Table renders experiment results as aligned plain-text tables, the
// format EXPERIMENTS.md and cmd/ksetbench print.
type Table struct {
	title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, Header: header}
}

// AddRow appends a row; cells are rendered with %v. Row length must match
// the header.
func (t *Table) AddRow(cells ...any) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("sim: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the rendered cell strings, row-major; used by the JSON
// output of cmd/ksetbench. The result shares storage with the table.
func (t *Table) Rows() [][]string { return t.rows }

// Render returns the table as aligned text with a title line and a rule
// under the header.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
