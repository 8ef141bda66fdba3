package main

import (
	"fmt"
	"math/rand"
)

// jobSpec is the submission payload of POST /jobs: the fields of
// serve.JobSpec the mix sets.
type jobSpec struct {
	Tenant   string `json:"tenant"`
	Bench    string `json:"bench"`
	Driver   string `json:"driver"`
	N        int    `json:"n"`
	Block    int    `json:"block"`
	Seed     int64  `json:"seed"`
	Priority int    `json:"priority"`
}

// key identifies the computation: jobs with equal keys must return equal
// checksums, whatever their tenant and priority.
func (s jobSpec) key() string {
	return fmt.Sprintf("%s/%s/n%d/b%d/seed%d", s.Bench, s.Driver, s.N, s.Block, s.Seed)
}

// mixBlock is the length of one stratum of the mix.
const mixBlock = 40

// serveMixJobs returns the first count jobs of the seeded traffic mix: a
// pure function of the seed. Sizes are 64/128/256 at 60/30/10 %, block
// n/4, fw:ge and im:cb 1:1; four tenants, priority 0 or 1 and one of 16
// input seeds are drawn uniformly.
//
// Job cost differs 30-fold between the sizes, so the mix is stratified:
// every block of 40 consecutive jobs holds each (size, bench, driver)
// combination exactly in proportion — 6, 3 and 1 jobs of the three sizes
// for each of the four bench x driver pairs — in seeded order. Runs of
// different seeds then carry the same load and differ in order, tenants,
// priorities and inputs, not in how many big jobs they happened to draw.
func serveMixJobs(seed int64, count int) []jobSpec {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]int64, 16)
	for i := range pool {
		pool[i] = rng.Int63n(1 << 40)
	}
	var block []jobSpec
	for _, bench := range []string{"fw", "ge"} {
		for _, driver := range []string{"im", "cb"} {
			for _, sz := range []struct{ n, jobs int }{{64, 6}, {128, 3}, {256, 1}} {
				for i := 0; i < sz.jobs; i++ {
					block = append(block, jobSpec{Bench: bench, Driver: driver, N: sz.n, Block: sz.n / 4})
				}
			}
		}
	}
	out := make([]jobSpec, 0, count+mixBlock)
	for len(out) < count {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, j := range block {
			j.Tenant = fmt.Sprintf("tenant-%d", rng.Intn(4))
			j.Priority = rng.Intn(2)
			j.Seed = pool[rng.Intn(len(pool))]
			out = append(out, j)
		}
	}
	return out[:count]
}
