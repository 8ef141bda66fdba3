package lcs

import (
	"math/rand"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
)

func newCtx() *rdd.Context {
	return rdd.NewContext(rdd.Conf{Cluster: cluster.Local(4)})
}

// reference is the classic O(nm) LCS.
func reference(a, b []byte) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			switch {
			case a[i-1] == b[j-1]:
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
		for k := range cur {
			cur[k] = 0
		}
	}
	return prev[len(b)]
}

func TestKnownLCS(t *testing.T) {
	res, err := Solve(newCtx(), []byte("ABCBDAB"), []byte("BDCABA"), Config{BlockSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 4 { // BDAB / BCAB / BCBA
		t.Fatalf("LCS = %d, want 4", res.Length)
	}
	if res.Waves != 3+2-1 {
		t.Fatalf("waves = %d", res.Waves)
	}
	if res.Time <= 0 {
		t.Fatal("no modelled time")
	}
}

func TestMatchesReferenceAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	alphabet := []byte("ACGT")
	randSeq := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	for trial := 0; trial < 8; trial++ {
		a := randSeq(20 + rng.Intn(60))
		b := randSeq(20 + rng.Intn(60))
		want := reference(a, b)
		for _, bs := range []int{7, 16, 64} {
			res, err := Solve(newCtx(), a, b, Config{BlockSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			if res.Length != want {
				t.Fatalf("trial %d bs=%d: LCS = %d, want %d (|a|=%d |b|=%d)",
					trial, bs, res.Length, want, len(a), len(b))
			}
		}
	}
}

func TestIdenticalAndDisjoint(t *testing.T) {
	s := []byte("HELLOWORLD")
	res, err := Solve(newCtx(), s, s, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != len(s) {
		t.Fatalf("self-LCS = %d", res.Length)
	}
	res, err = Solve(newCtx(), []byte("AAAA"), []byte("BBBB"), Config{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 0 {
		t.Fatalf("disjoint LCS = %d", res.Length)
	}
}

func TestEmptyInputs(t *testing.T) {
	res, err := Solve(newCtx(), nil, []byte("AB"), Config{BlockSize: 2})
	if err != nil || res.Length != 0 {
		t.Fatalf("empty LCS = %+v, %v", res, err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(newCtx(), []byte("A"), []byte("B"), Config{}); err == nil {
		t.Fatal("expected BlockSize error")
	}
}

// TestWavefrontMovesOnlyBoundaries: the whole point of the wavefront
// pattern — the bytes moved per wave are O(b), not O(b²).
func TestWavefrontMovesOnlyBoundaries(t *testing.T) {
	ctx := newCtx()
	a := make([]byte, 256)
	b := make([]byte, 256)
	for i := range a {
		a[i] = byte('A' + i%4)
		b[i] = byte('A' + (i/2)%4)
	}
	res, err := Solve(ctx, a, b, Config{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length == 0 {
		t.Fatal("expected a nonzero LCS")
	}
	var spilled int64
	for _, ev := range ctx.Events() {
		spilled += ev.SpillBytes
	}
	// 4×4 tiles; each emits ≤ (2·64+1)·4 boundary bytes + tags ≈ 520 B
	// to ≤3 consumers. Anything near tile-sized (64²·4 = 16 KiB per
	// tile) would mean we shipped payloads, not boundaries.
	tiles := int64(16)
	if spilled > tiles*3*600 {
		t.Fatalf("moved %d bytes — boundaries only should be ≤ %d", spilled, tiles*3*600)
	}
}

// TestRecordPricing is lcs's share of the engine's pricing parity table
// (see rdd.TestDefaultSizer): a boundary message prices through its
// SizeBytes hook, keyed by coordinate; the grouped []msg value has no
// hook and prices at the 64-byte default, as it always did.
func TestRecordPricing(t *testing.T) {
	ctx := newCtx()
	m := msg{FromRow: true, B: boundary{Row: make([]int32, 5), Col: make([]int32, 3)}}
	c := matrix.Coord{I: 1, J: 2}
	if got := rdd.NewBroadcast(ctx, []msg{m}).Bytes(); got != 8*4+4+2 {
		t.Errorf("msg priced %d, want %d", got, 8*4+4+2)
	}
	if got := rdd.NewBroadcast(ctx, []rdd.Pair[matrix.Coord, msg]{rdd.KV(c, m)}).Bytes(); got != 16+8*4+4+2 {
		t.Errorf("coord→msg priced %d, want %d", got, 16+8*4+4+2)
	}
	if got := rdd.NewBroadcast(ctx, []rdd.Pair[matrix.Coord, []msg]{rdd.KV(c, []msg{m, m})}).Bytes(); got != 16+64 {
		t.Errorf("coord→[]msg priced %d, want %d", got, 16+64)
	}
}
