// Alignment: the beyond-GEP extension (paper §VI future work) in action —
// longest common subsequence of two DNA-like sequences via the blocked
// wavefront DP, with the contrast to GEP's communication pattern printed
// from the engine's event log.
//
//	go run ./examples/alignment
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dpspark"
)

func main() {
	// Two related sequences: b is a mutated copy of a.
	rng := rand.New(rand.NewSource(23))
	alphabet := []byte("ACGT")
	a := make([]byte, 1200)
	for i := range a {
		a[i] = alphabet[rng.Intn(4)]
	}
	b := append([]byte(nil), a...)
	for i := range b { // ~20% point mutations
		if rng.Float64() < 0.2 {
			b[i] = alphabet[rng.Intn(4)]
		}
	}

	session := dpspark.NewSession(dpspark.Local(4))
	length, stats, err := session.LCS(a, b, 150)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequences: |a| = %d, |b| = %d\n", len(a), len(b))
	fmt.Printf("LCS length %d (%.1f%% identity) in %d wavefront stages\n",
		length, 100*float64(length)/float64(len(a)), stats.Iterations)
	fmt.Printf("wall %v, modelled cluster time %v\n", stats.Wall.Round(1e6), stats.Time)

	// The wavefront's communication volume: only boundary vectors cross
	// tiles, a fraction of the table GEP problems must move.
	var spilled int64
	for _, ev := range session.Context().Events() {
		spilled += ev.SpillBytes
	}
	table := int64(len(a)) * int64(len(b)) * 4
	fmt.Printf("moved %d boundary bytes between stages — %.2f%% of the %d-byte DP table\n",
		spilled, 100*float64(spilled)/float64(table), table)
}
