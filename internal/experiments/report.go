package experiments

import (
	"fmt"
	"strings"
)

// Report is a rendered experiment result: one table or one figure's
// series, in rows of strings ready for printing next to the paper.
type Report struct {
	ID    string // e.g. "exp2", "fig6a", "tab2"
	Title string
	// Note records caveats (scale, substitutions).
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Note != "" {
		fmt.Fprintf(&b, "   (%s)\n", r.Note)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
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
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// itoa formats an int.
func itoa(i int) string { return fmt.Sprintf("%d", i) }
