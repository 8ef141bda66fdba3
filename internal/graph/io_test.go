package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	g := Random(20, 0.2, 1, 9, rng)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.Edges() != g.Edges() {
		t.Fatalf("round trip %d/%d vs %d/%d", back.N, back.Edges(), g.N, g.Edges())
	}
	if back.DistanceMatrix().MaxAbsDiff(g.DistanceMatrix()) != 0 {
		t.Fatal("weights changed in round trip")
	}
}

func TestDIMACSComments(t *testing.T) {
	in := "c header\np sp 3 2\nc mid\na 1 2 4.5\na 2 3 1\n"
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.Edges() != 2 || g.Adj[0][0].Weight != 4.5 {
		t.Fatalf("parsed %+v", g)
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"a 1 2 3\n",             // arc before problem line
		"p xx 3 2\n",            // wrong problem type
		"p sp 3 2\na 1 9 1\n",   // out of range
		"p sp 3 2\na 1 2\n",     // short arc
		"p sp 3 2\nz what\n",    // unknown record
		"p sp -1 2\n",           // bad count
		"p sp 3 2\na x y 1.0\n", // malformed ints
	}
	for _, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}
