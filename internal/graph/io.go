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

// ReadDIMACS parses the 9th DIMACS shortest-path challenge format:
//
//	c comment
//	p sp <n> <m>
//	a <from> <to> <weight>
//
// Vertex ids are 1-based in the file and converted to 0-based.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("graph: line %d: bad problem line %q", line, text)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count", line)
			}
			g = New(n)
		case 'a':
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: arc before problem line", line)
			}
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: bad arc %q", line, text)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: malformed arc %q", line, text)
			}
			if u < 1 || u > g.N || v < 1 || v > g.N {
				return nil, fmt.Errorf("graph: line %d: arc (%d,%d) outside 1..%d", line, u, v, g.N)
			}
			g.AddEdge(u-1, v-1, w)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	return g, nil
}

// WriteDIMACS emits the graph in the format ReadDIMACS parses.
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.N, g.Edges()); err != nil {
		return err
	}
	for _, es := range g.Adj {
		for _, e := range es {
			if _, err := fmt.Fprintf(bw, "a %d %d %g\n", e.From+1, e.To+1, e.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
