package kernels

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dpspark/internal/matrix"
	"dpspark/internal/semiring"
)

// recursiveGolden is the FNV-64a of the output bits of RunLocal with the
// recursive kernels, keyed "rule/n=/b=". Each cell sees its updates in k
// order whatever the fan-out, base size or pool width, so one constant
// covers every r_shared × base × threads configuration of a table. The
// constants were captured from the hand-written per-kind recursion that
// the Fig. 4 schedules replaced.
var recursiveGolden = map[string]uint64{
	"gep-min-plus/n=96/b=32":   0x8acbab17c4b969cd,
	"gep-min-plus/n=100/b=24":  0xbdcef05d08169555,
	"gep-min-plus/n=128/b=64":  0xca4de4c3a20e3d55,
	"gaussian-elim/n=96/b=32":  0x467d82932a7d7b18,
	"gaussian-elim/n=100/b=24": 0x78eef81be41c7051,
	"gaussian-elim/n=128/b=64": 0xa7cdb59fcb75023d,
}

// TestRecursiveGolden runs whole FW and GE tables through the blocked
// driver with recursive kernels over r_shared × base × threads and
// dividing and non-dividing tile sizes, and compares the output bits
// with recursiveGolden: the same calls, in the same dependency order,
// give the same bits across commits. -short and -race keep the smallest
// shape.
func TestRecursiveGolden(t *testing.T) {
	shapes := [][2]int{{96, 32}, {100, 24}, {128, 64}}
	if testing.Short() || raceEnabled {
		shapes = shapes[:1]
	}
	for _, rule := range []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()} {
		for _, shape := range shapes {
			n, b := shape[0], shape[1]
			key := fmt.Sprintf("%s/n=%d/b=%d", rule.Name(), n, b)
			in := randomInput(rule, n, rand.New(rand.NewSource(int64(1000*n+b))))
			for _, r := range []int{2, 3, 4, 8} {
				for _, base := range []int{2, 4, 16} {
					for _, threads := range []int{1, 4} {
						bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
						RunLocal(bl, NewRecursiveExec(rule, r, base, threads))
						if got, want := hashBits(bl.ToDense().Data), recursiveGolden[key]; got != want {
							t.Errorf("%s r=%d base=%d threads=%d: output hash %#016x, want %#016x",
								key, r, base, threads, got, want)
						}
					}
				}
			}
		}
	}
}

// hashBits is the FNV-64a of the values' little-endian bit patterns.
func hashBits(data []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range data {
		bits := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
