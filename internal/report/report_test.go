package report

import (
	"strings"
	"testing"

	"activedr/internal/stats"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Demo", "Name", "Value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta-long-name", "42")
	out := tbl.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "beta-long-name  42") {
		t.Errorf("row misaligned:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All data lines padded to the same width structure: the separator
	// row has dashes as wide as the widest cell.
	if !strings.Contains(out, strings.Repeat("-", len("beta-long-name"))) {
		t.Error("separator not sized to widest cell")
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tbl := NewTable("", "A", "B", "C")
	tbl.AddRow("x")
	out := tbl.String()
	if strings.Contains(out, "== ") {
		t.Error("empty title rendered")
	}
	if len(tbl.Rows[0]) != 3 {
		t.Fatal("row not padded")
	}
}

func TestHistogram(t *testing.T) {
	var b strings.Builder
	Histogram(&b, "Miss ranges", []string{"1%-5%", "5%-10%"},
		map[string][]int{"FLT": {10, 4}, "ActiveDR": {8, 2}},
		[]string{"FLT", "ActiveDR"})
	out := b.String()
	for _, want := range []string{"== Miss ranges ==", "-- FLT --", "-- ActiveDR --", "1%-5%", "####"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// FLT's 10 is the max: full 40-char bar.
	if !strings.Contains(out, strings.Repeat("#", 40)) {
		t.Error("max bar not full width")
	}
}

func TestSeries(t *testing.T) {
	var b strings.Builder
	Series(&b, "Daily", "date", []string{"flt", "adr"}, []SeriesRow{
		{X: "2016-01-01", Y: []float64{1, 2}},
		{X: "2016-01-02", Y: []float64{3.5, 0.25}},
	})
	out := b.String()
	if !strings.Contains(out, "2016-01-02") || !strings.Contains(out, "3.5") {
		t.Fatalf("series rows missing:\n%s", out)
	}
}

func TestBoxRow(t *testing.T) {
	row := BoxRow("Both Active", stats.Box{Min: 0.1, Q1: 0.2, Median: 0.3, Q3: 0.4, Max: 0.5, Mean: 0.37})
	for _, want := range []string{"Both Active", "med=  30.00%", "mean=  37.00%"} {
		if !strings.Contains(row, want) {
			t.Errorf("missing %q in %q", want, row)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{5 << 20, "5.000MiB"},
		{3 << 30, "3.000GiB"},
		{1 << 40, "1.000TiB"},
		{1 << 50, "1.000PiB"},
		{-(3 << 40), "-3.000TiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.n); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.375) != "+37.50%" || Percent(-0.4048) != "-40.48%" {
		t.Fatalf("Percent wrong: %q %q", Percent(0.375), Percent(-0.4048))
	}
}
