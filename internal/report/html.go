package report

import (
	"fmt"
	"html"
	"io"
	"strings"
)

// HTMLReport collects rendered sections into one self-contained page —
// the harness's shareable artifact (cmd/dpspark all -html out.html).
type HTMLReport struct {
	Title    string
	sections []string
}

// NewHTMLReport starts a report.
func NewHTMLReport(title string) *HTMLReport {
	return &HTMLReport{Title: title}
}

// AddTable renders a table section.
func (h *HTMLReport) AddTable(t *Table) {
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>%s</h2>\n<table>\n<tr><th>%s</th>", esc(t.Title), esc(t.CornerName))
	for _, c := range t.ColHeaders {
		fmt.Fprintf(&b, "<th>%s</th>", esc(c))
	}
	b.WriteString("</tr>\n")
	for r, rh := range t.RowHeaders {
		fmt.Fprintf(&b, "<tr><th>%s</th>", esc(rh))
		for _, cell := range t.Cells[r] {
			fmt.Fprintf(&b, "<td>%s</td>", esc(cell))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
	h.sections = append(h.sections, b.String())
}

// AddBarChart renders a grouped bar chart as inline SVG.
func (h *HTMLReport) AddBarChart(bc *BarChart) {
	const barH, gap, labelW, chartW = 16, 4, 230, 420
	maxVal := 0.0
	rows := 0
	for _, g := range bc.Group {
		rows += 1 + len(g.Bars)
		for _, bar := range g.Bars {
			if bar.Note == "" && bar.Value > maxVal {
				maxVal = bar.Value
			}
		}
	}
	height := rows*(barH+gap) + 10
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>%s</h2>\n", esc(bc.Title))
	fmt.Fprintf(&b, `<svg width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n",
		labelW+chartW+90, height)
	y := 0
	for _, g := range bc.Group {
		y += barH + gap
		fmt.Fprintf(&b, `<text x="0" y="%d" font-weight="bold">%s</text>`+"\n", y-gap, esc(g.Label))
		for _, bar := range g.Bars {
			y += barH + gap
			fmt.Fprintf(&b, `<text x="12" y="%d">%s</text>`+"\n", y-gap, esc(bar.Name))
			if bar.Note != "" {
				fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#b00">[%s]</text>`+"\n",
					labelW, y-gap, esc(bar.Note))
				continue
			}
			w := 1
			if maxVal > 0 {
				w = int(bar.Value / maxVal * chartW)
				if w < 1 {
					w = 1
				}
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#4a7fb5"/>`+"\n",
				labelW, y-gap-barH+3, w, barH-2)
			fmt.Fprintf(&b, `<text x="%d" y="%d">%.0f%s</text>`+"\n",
				labelW+w+6, y-gap, bar.Value, esc(bc.Unit))
		}
	}
	b.WriteString("</svg>\n")
	h.sections = append(h.sections, b.String())
}

// AddLineChart renders a line chart as its value table.
func (h *HTMLReport) AddLineChart(lc *LineChart) {
	if len(lc.Lines) == 0 {
		return
	}
	h.AddTable(lc.table())
}

// AddText adds a free-form paragraph.
func (h *HTMLReport) AddText(text string) {
	h.sections = append(h.sections, "<p>"+esc(text)+"</p>\n")
}

// Write emits the complete page.
func (h *HTMLReport) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title>
<style>
body{font-family:sans-serif;max-width:960px;margin:2em auto;padding:0 1em}
table{border-collapse:collapse;margin:1em 0}
th,td{border:1px solid #bbb;padding:4px 10px;text-align:right}
th{background:#eef2f7}
h1{border-bottom:2px solid #4a7fb5}
</style></head><body>
<h1>%s</h1>
`, esc(h.Title), esc(h.Title)); err != nil {
		return err
	}
	for _, s := range h.sections {
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</body></html>\n")
	return err
}

func esc(s string) string { return html.EscapeString(s) }
