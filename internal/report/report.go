// Package report renders experiment results as aligned ASCII tables, bar
// charts and CSV — the output layer of the paper-reproduction harness
// (each table/figure of the paper has a generator in
// internal/experiments that returns these types).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"dpspark/internal/simtime"
)

// Table is a 2-D grid of rendered cells with row and column headers —
// the shape of the paper's Tables I–II.
type Table struct {
	Title      string
	CornerName string
	ColHeaders []string
	RowHeaders []string
	Cells      [][]string
}

// NewTable allocates an empty rows×cols table.
func NewTable(title, corner string, rowHeaders, colHeaders []string) *Table {
	cells := make([][]string, len(rowHeaders))
	for i := range cells {
		cells[i] = make([]string, len(colHeaders))
	}
	return &Table{
		Title:      title,
		CornerName: corner,
		ColHeaders: colHeaders,
		RowHeaders: rowHeaders,
		Cells:      cells,
	}
}

// Set writes one cell.
func (t *Table) Set(row, col int, cell string) { t.Cells[row][col] = cell }

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.ColHeaders)+1)
	widths[0] = len(t.CornerName)
	for _, rh := range t.RowHeaders {
		if len(rh) > widths[0] {
			widths[0] = len(rh)
		}
	}
	for c, ch := range t.ColHeaders {
		widths[c+1] = len(ch)
		for r := range t.RowHeaders {
			if n := len(t.Cells[r][c]); n > widths[c+1] {
				widths[c+1] = n
			}
		}
	}

	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(parts []string) error {
		var b strings.Builder
		for i, p := range parts {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, p)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(append([]string{t.CornerName}, t.ColHeaders...)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for r, rh := range t.RowHeaders {
		if err := line(append([]string{rh}, t.Cells[r]...)); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{t.CornerName}, t.ColHeaders...)); err != nil {
		return err
	}
	for r, rh := range t.RowHeaders {
		if err := cw.Write(append([]string{rh}, t.Cells[r]...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Bar is one measurement in a chart group.
type Bar struct {
	Name  string
	Value float64
	// Note marks missing/failed bars ("timeout", "disk full"); rendered
	// instead of a bar, like the paper's missing bars.
	Note string
}

// Group is a labelled cluster of bars (e.g. one block size).
type Group struct {
	Label string
	Bars  []Bar
}

// BarChart is a grouped horizontal bar chart — the shape of Figs. 6 and 8.
type BarChart struct {
	Title string
	Unit  string
	Width int // bar area width in characters (default 50)
	Group []Group
}

// Render writes the chart in plain text, bars scaled to the maximum value.
func (bc *BarChart) Render(w io.Writer) error {
	width := bc.Width
	if width <= 0 {
		width = 50
	}
	maxVal := 0.0
	nameW := 0
	for _, g := range bc.Group {
		for _, b := range g.Bars {
			if b.Note == "" && b.Value > maxVal {
				maxVal = b.Value
			}
			if len(b.Name) > nameW {
				nameW = len(b.Name)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", bc.Title); err != nil {
		return err
	}
	for _, g := range bc.Group {
		if _, err := fmt.Fprintf(w, "%s\n", g.Label); err != nil {
			return err
		}
		for _, b := range g.Bars {
			if b.Note != "" {
				if _, err := fmt.Fprintf(w, "  %-*s  [%s]\n", nameW, b.Name, b.Note); err != nil {
					return err
				}
				continue
			}
			n := 0
			if maxVal > 0 {
				n = int(math.Round(b.Value / maxVal * float64(width)))
			}
			if n < 1 && b.Value > 0 {
				n = 1
			}
			if _, err := fmt.Fprintf(w, "  %-*s  %s %.0f%s\n",
				nameW, b.Name, strings.Repeat("█", n), b.Value, bc.Unit); err != nil {
				return err
			}
		}
	}
	return nil
}

// Line is a labelled series for line-style figures (Fig. 9 weak scaling).
type Line struct {
	Name   string
	Points []Point
}

// Point is one x-label/value pair.
type Point struct {
	Label string
	Value float64
	Note  string
}

// LineChart renders series side by side per x label.
type LineChart struct {
	Title string
	Unit  string
	Lines []Line
}

// Render writes the series as an aligned value table (x labels as rows).
func (lc *LineChart) Render(w io.Writer) error {
	if len(lc.Lines) == 0 {
		return nil
	}
	return lc.table().Render(w)
}

// table lays the series out as a value table: x labels as rows, one
// column per line, notes in brackets in place of values. It needs at
// least one line.
func (lc *LineChart) table() *Table {
	headers := make([]string, len(lc.Lines))
	for i, l := range lc.Lines {
		headers[i] = l.Name
	}
	rows := make([]string, len(lc.Lines[0].Points))
	for i, p := range lc.Lines[0].Points {
		rows[i] = p.Label
	}
	t := NewTable(lc.Title, "x", rows, headers)
	for c, l := range lc.Lines {
		for r, p := range l.Points {
			if p.Note != "" {
				t.Set(r, c, "["+p.Note+"]")
			} else {
				t.Set(r, c, fmt.Sprintf("%.0f%s", p.Value, lc.Unit))
			}
		}
	}
	return t
}

// Seconds formats a duration cell the way the paper's tables do (whole
// seconds), flagging timeouts.
func Seconds(d simtime.Duration, timedOut bool) string {
	if timedOut {
		return ">8h"
	}
	return fmt.Sprintf("%.0f", d.Seconds())
}
