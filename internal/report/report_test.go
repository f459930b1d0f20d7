package report

import (
	"math"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Sample", "name", "value", "pct")
	t.AddRow("alpha", 1.2345, "10%")
	t.AddRow("beta", 42, "20%")
	t.AddNote("a note with %d parts", 2)
	return t
}

func TestTableASCII(t *testing.T) {
	out := sampleTable().ASCII()
	for _, want := range []string{"Sample", "name", "alpha", "1.23", "42", "note: a note with 2 parts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII missing %q:\n%s", want, out)
		}
	}
	// Header separator present.
	if !strings.Contains(out, "---") {
		t.Fatal("missing separator")
	}
}

func TestTableAlignment(t *testing.T) {
	out := sampleTable().ASCII()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// All body lines share the header's column start for column 2.
	header := lines[1]
	valueCol := strings.Index(header, "value")
	for _, l := range lines[3:5] {
		cell := strings.TrimLeft(l[valueCol:], " ")
		if cell == "" || cell[0] == ' ' {
			t.Fatalf("misaligned row: %q", l)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow(`x,y`, `say "hi"`)
	out := tab.CSV()
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("quote cell not escaped: %q", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("missing header: %q", out)
	}
}

func TestTableRowsCopy(t *testing.T) {
	tab := sampleTable()
	rows := tab.Rows()
	rows[0][0] = "mutated"
	if tab.Rows()[0][0] == "mutated" {
		t.Fatal("Rows must return a copy")
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234.6:  "1235", // %.0f rounds half to even, so test off the .5
		123.45:  "123.5",
		12.345:  "12.35",
		0.12345: "0.123",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestChartRendersSeries(t *testing.T) {
	c := NewChart("T", "x", "y")
	if err := c.AddSeries("up", []float64{0, 1, 2}, []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSeries("down", []float64{0, 1, 2}, []float64{2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	out := c.ASCII()
	for _, want := range []string{"T", "x: x   y: y", "* up", "o down", "+--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Both markers must appear in the plot area.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("markers missing")
	}
}

func TestChartSeriesLengthMismatch(t *testing.T) {
	c := NewChart("T", "x", "y")
	if err := c.AddSeries("bad", []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want error")
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("T", "x", "y")
	if !strings.Contains(c.ASCII(), "(no data)") {
		t.Fatal("empty chart must say so")
	}
}

func TestChartIgnoresNonFinite(t *testing.T) {
	c := NewChart("T", "x", "y")
	inf := math.Inf(1)
	if err := c.AddSeries("s", []float64{0, 1, 2}, []float64{1, inf, 2}); err != nil {
		t.Fatal(err)
	}
	out := c.ASCII()
	if strings.Contains(out, "Inf") {
		t.Fatal("infinities must not leak into the render")
	}
}

func TestChartConstantSeries(t *testing.T) {
	c := NewChart("T", "x", "y")
	if err := c.AddSeries("flat", []float64{0, 1}, []float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	out := c.ASCII()
	if out == "" || strings.Contains(out, "NaN") {
		t.Fatalf("flat series render: %q", out)
	}
}

func TestChartLegendSorted(t *testing.T) {
	c := NewChart("T", "", "")
	_ = c.AddSeries("zeta", []float64{0}, []float64{0})
	_ = c.AddSeries("alpha", []float64{1}, []float64{1})
	out := c.ASCII()
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatal("legend must sort by name")
	}
}
