package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
)

// sleepyRule is its rule, except that with sleep set every sleepEvery-th
// Apply sleeps a little: real kernel time stretches, and with it the order
// in which tasks, asynchronous spill writes and sibling jobs interleave,
// while every value stays the same.
type sleepyRule struct {
	semiring.Rule
	sleep bool
	calls atomic.Int64
}

const sleepEvery = 1024

func (r *sleepyRule) Apply(x, u, v, w float64) float64 {
	if r.sleep {
		if n := r.calls.Add(1); n%sleepEvery == 0 {
			time.Sleep(time.Duration(1+n/sleepEvery%4) * 40 * time.Microsecond)
		}
	}
	return r.Rule.Apply(x, u, v, w)
}

// wallPerturbation is one way of moving a run in real time only.
type wallPerturbation struct {
	name  string
	procs int // GOMAXPROCS
	par   int // task slots of the job's substrate
	// shared mounts the job on a one-slot Substrate next to a sibling job.
	shared bool
}

// TestModelledClockIgnoresWallTime is the determinism contract: the
// modelled clock, the recovery counters, the stage events and the result
// bits are a function of the job spec and the fault plan alone. Each run
// crashes an executor, loses a disk and meets a straggler under the chaos
// plan, with a 2 KiB memory budget, so the durable store evicts and spills
// blocks asynchronously all along; it is then perturbed in real time only
// — slow kernels, one or four task goroutines, GOMAXPROCS 1 or 8, a shared
// one-slot substrate with a sibling job on it — and must match an
// unperturbed reference exactly. A charge fed by any wall-clock reading,
// such as the store's spill wall time, fails it.
func TestModelledClockIgnoresWallTime(t *testing.T) {
	perturbations := []wallPerturbation{
		{"par1/procs1", 1, 1, false},
		{"par4/procs1", 1, 4, false},
		{"par1/procs8", 8, 1, false},
		{"par4/procs8", 8, 4, false},
		{"shared/procs1", 1, 1, true},
		{"shared/procs8", 8, 1, true},
	}
	rules := []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()}
	drivers := []DriverKind{IM, CB}
	if testing.Short() {
		rules, drivers, perturbations = rules[:1], drivers[:1], perturbations[len(perturbations)-1:]
	}
	rng := rand.New(rand.NewSource(31))
	for _, rule := range rules {
		in := randomInput(rule, 32, rng)
		for _, driver := range drivers {
			ref := perturbedRun(t, rule, driver, in, nil)
			if ref.rs.ExecutorCrashes != 1 || ref.rs.DiskLosses != 1 || ref.rs.Stragglers == 0 {
				t.Fatalf("%s %v: chaos plan did not fully fire: %+v", rule.Name(), driver, ref.rs)
			}
			if ref.stats.SpilledBlocks == 0 {
				t.Fatalf("%s %v: the memory budget spilled nothing", rule.Name(), driver)
			}
			for _, p := range perturbations {
				name := fmt.Sprintf("%s/%v/%s", rule.Name(), driver, p.name)
				got := perturbedRun(t, rule, driver, in, &p)
				if math.Float64bits(float64(got.stats.Time)) != math.Float64bits(float64(ref.stats.Time)) {
					t.Errorf("%s: modelled time %v, unperturbed %v", name, got.stats.Time, ref.stats.Time)
				}
				if got.rs != ref.rs {
					t.Errorf("%s: recovery stats differ:\n%+v\n%+v", name, got.rs, ref.rs)
				}
				if !reflect.DeepEqual(got.event, ref.event) {
					t.Errorf("%s: stage events differ", name)
				}
				if !bitIdentical(got.dense, ref.dense) {
					t.Errorf("%s: result bits differ", name)
				}
			}
		}
	}
}

// perturbedRun executes one durable chaos run, perturbed by p (nil: the
// unperturbed reference, one task goroutine on a solo context). The
// reference wraps its rule too, without sleeping: a wrapped rule runs the
// kernels' generic loop, so both sides take the same kernel path.
func perturbedRun(t *testing.T, rule semiring.Rule, driver DriverKind, in *matrix.Dense, p *wallPerturbation) chaosOut {
	t.Helper()
	dir := t.TempDir()
	conf := durableConf(dir, 2<<10, chaosPlan(), nil)
	conf.Substrate = slots(t, conf.Cluster, 1)
	sr := &sleepyRule{Rule: rule}
	var sibling sync.WaitGroup
	if p != nil {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.procs))
		sr.sleep = true
		if !p.shared {
			conf.Substrate = slots(t, conf.Cluster, p.par)
		} else {
			sub := conf.Substrate
			sibling.Add(1)
			go func() {
				defer sibling.Done()
				sib := rdd.NewContext(rdd.Conf{Substrate: sub})
				cfg := Config{Rule: &sleepyRule{Rule: rule, sleep: true}, BlockSize: 8, Driver: driver, Partitions: 8}
				if _, _, err := Run(sib, matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag()), cfg); err != nil {
					t.Errorf("sibling job: %v", err)
				}
			}()
		}
	}
	defer sibling.Wait()
	out, _ := durableChaosRun(t, sr, driver, in, conf, dir)
	return out
}
