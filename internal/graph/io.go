package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list:
//
//	# comment
//	<n>
//	<from> <to> <weight>
//	...
//
// Vertex ids are 0-based. Lines starting with '#' or '%' are ignored.
// This is the input format of `dpspark solve -graph`.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) != 1 {
				return nil, fmt.Errorf("graph: line %d: expected vertex count, got %q", line, text)
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[0])
			}
			g = New(n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: expected 'from to weight', got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: line %d: malformed edge %q", line, text)
		}
		if u < 0 || u >= g.N || v < 0 || v >= g.N {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) outside %d vertices", line, u, v, g.N)
		}
		g.AddEdge(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	return g, nil
}

// WriteEdgeList emits the graph in the format ReadEdgeList parses.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", g.N); err != nil {
		return err
	}
	for _, es := range g.Adj {
		for _, e := range es {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.From, e.To, e.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
