package main

import (
	"reflect"
	"testing"
)

func TestServeMixIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := serveMixJobs(7, 500), serveMixJobs(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different mixes")
	}
	if reflect.DeepEqual(a, serveMixJobs(8, 500)) {
		t.Fatal("different seeds gave the same mix")
	}
	// A longer mix of the same seed starts with the shorter one.
	if long := serveMixJobs(7, 900); !reflect.DeepEqual(a, long[:500]) {
		t.Fatal("the mix depends on how many jobs were asked for")
	}
}

func TestServeMixProportions(t *testing.T) {
	jobs := serveMixJobs(3, 10*mixBlock)
	for blk := 0; blk < 10; blk++ {
		sizes := map[int]int{}
		combos := map[string]int{}
		for _, j := range jobs[blk*mixBlock : (blk+1)*mixBlock] {
			sizes[j.N]++
			combos[j.Bench+"/"+j.Driver]++
			if j.Block != j.N/4 {
				t.Fatalf("block %d of n=%d, want n/4", j.Block, j.N)
			}
			if j.Priority != 0 && j.Priority != 1 {
				t.Fatalf("priority %d", j.Priority)
			}
		}
		if sizes[64] != 24 || sizes[128] != 12 || sizes[256] != 4 {
			t.Errorf("block %d: sizes %v, want 60/30/10 %% of 40", blk, sizes)
		}
		for _, c := range []string{"fw/im", "fw/cb", "ge/im", "ge/cb"} {
			if combos[c] != 10 {
				t.Errorf("block %d: %d %s jobs, want 10", blk, combos[c], c)
			}
		}
	}
	tenants, seeds := map[string]bool{}, map[int64]bool{}
	for _, j := range jobs {
		tenants[j.Tenant] = true
		seeds[j.Seed] = true
	}
	if len(tenants) != 4 || len(seeds) != 16 {
		t.Errorf("%d tenants and %d input seeds, want 4 and 16", len(tenants), len(seeds))
	}
}
