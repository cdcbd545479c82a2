// Package report renders experiment output as aligned text tables,
// labelled series, and ASCII histograms — the textual equivalents of
// the paper's figures that the benchmark harness and cmd/report emit.
package report

import (
	"fmt"
	"io"
	"strings"

	"activedr/internal/stats"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				io.WriteString(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		io.WriteString(w, "\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Histogram renders labelled counts with proportional bars, the text
// analogue of the day-count histograms in Figures 1 and 6.
func Histogram(w io.Writer, title string, labels []string, series map[string][]int, order []string) {
	fmt.Fprintf(w, "== %s ==\n", title)
	max := 1
	for _, counts := range series {
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for _, name := range order {
		counts := series[name]
		fmt.Fprintf(w, "-- %s --\n", name)
		for i, l := range labels {
			n := 0
			if i < len(counts) {
				n = counts[i]
			}
			bar := strings.Repeat("#", n*40/max)
			fmt.Fprintf(w, "%-*s %4d %s\n", labelW, l, n, bar)
		}
	}
}

// Series renders an (x, y...) line series as columns, the text
// analogue of the time-series figures.
func Series(w io.Writer, title string, xLabel string, names []string, rows []SeriesRow) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-12s", xLabel)
	for _, n := range names {
		fmt.Fprintf(w, "  %12s", n)
	}
	io.WriteString(w, "\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s", r.X)
		for _, v := range r.Y {
			fmt.Fprintf(w, "  %12.4g", v)
		}
		io.WriteString(w, "\n")
	}
}

// SeriesRow is one x position with one y value per series.
type SeriesRow struct {
	X string
	Y []float64
}

// BoxRow renders one Figure-8-style box-statistics line.
func BoxRow(name string, b stats.Box) string {
	return fmt.Sprintf("%-24s min=%7.2f%% q1=%7.2f%% med=%7.2f%% q3=%7.2f%% max=%7.2f%% mean=%7.2f%%",
		name, 100*b.Min, 100*b.Q1, 100*b.Median, 100*b.Q3, 100*b.Max, 100*b.Mean)
}

// Bytes formats a byte count with a binary-power unit, matching the
// PB/TB axis labels of Figures 9 and 10.
func Bytes(n int64) string {
	abs := n
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1<<50:
		return fmt.Sprintf("%.3fPiB", float64(n)/float64(int64(1)<<50))
	case abs >= 1<<40:
		return fmt.Sprintf("%.3fTiB", float64(n)/float64(int64(1)<<40))
	case abs >= 1<<30:
		return fmt.Sprintf("%.3fGiB", float64(n)/float64(int64(1)<<30))
	case abs >= 1<<20:
		return fmt.Sprintf("%.3fMiB", float64(n)/float64(int64(1)<<20))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Percent formats a ratio as a signed percentage.
func Percent(x float64) string { return fmt.Sprintf("%+.2f%%", 100*x) }
