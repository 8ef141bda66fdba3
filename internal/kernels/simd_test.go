package kernels

import "testing"

func (l simdLevel) String() string {
	switch l {
	case simdAVX2:
		return "AVX2"
	case simdAVX512:
		return "AVX-512"
	}
	return "scalar"
}

// TestSIMDLevel logs the tier this host runs and which tiers the
// bit-identity tests exercise on it. An AVX-512 host must also be able
// to run AVX2 (its bricks hand 8-column remainders to the AVX2 brick,
// and the tests compare both tiers), a request above the host's tier is
// capped at it, and every test that lowers the tier — the ones before
// this one in the package, and any that uses simdTiers — leaves the
// package back at the detected tier.
func TestSIMDLevel(t *testing.T) {
	if simd != hostSIMD {
		t.Fatalf("kernels run at %v after the preceding tests, host has %v", simd, hostSIMD)
	}
	var tiers []simdLevel
	t.Run("tiers", func(t *testing.T) {
		tiers = simdTiers(t)
		for _, tier := range tiers {
			setSIMDForTest(tier)
			if simd != tier {
				t.Fatalf("asked for %v on a %v host, got %v", tier, hostSIMD, simd)
			}
		}
		setSIMDForTest(simdAVX512)
		if simd != hostSIMD {
			t.Fatalf("asked for %v on a %v host, got %v", simdAVX512, hostSIMD, simd)
		}
		setSIMDForTest(simdScalar)
	})
	t.Logf("detected tier %v; bit-identity tests run %v", hostSIMD, tiers)
	if simd != hostSIMD {
		t.Fatalf("kernels run at %v after simdTiers' test ended, host has %v", simd, hostSIMD)
	}
}
