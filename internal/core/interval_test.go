package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/store"
)

// never is a DurableInterval no boundary of a test-sized run reaches.
const never = time.Hour

// intervalParentFiles pins the checkpoint files of an interval-0 run to
// the bytes the code wrote before DurableInterval existed (captured at
// that commit with this test's input): name -> sha256.
var intervalParentFiles = map[DriverKind]map[string]string{
	IM: {
		"ckpt-000001.ck": "b60eeea256289a7efadaa1c481b477b5e3ad1e5766c84a6c7b54368f6113e780",
		"ckpt-000002.ck": "3793296d2424e6630462a200aa756c1841ceec4132dda1c9106abfca76666377",
		"ckpt-000003.ck": "8bbc9e89d84415630342d9195cf666bb9c4826fbcde752dfc023b4d573b3d6ab",
		"ckpt-000004.ck": "767d68bc0b5d26a944f30a2160d6053ac5b64ece42e2b608b7297fd17019e5f7",
	},
	CB: {
		"ckpt-000001.ck": "0a79fa8fe3cc8ede970ad887642f0ab18d0a0724798b3ae1a1e32714d0f9b2ab",
		"ckpt-000002.ck": "26d860b27dda7cb61d83bbbd4dea6f76fa5fed09689dd4bf86098c257d818360",
		"ckpt-000003.ck": "253c1371d28ea2ddaf627808873d161431ad339d7b080f4119843c775ecbb474",
		"ckpt-000004.ck": "56d9f386f6864be2ecbacef36777c17d5648e9676d7aa0710a40390457e42770",
	},
}

// ckptFiles hashes the checkpoint files under dir.
func ckptFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	for _, id := range store.ListCheckpoints(dir) {
		name := fmt.Sprintf("ckpt-%06d.ck", id)
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	return files
}

// intervalOut is what must not depend on DurableInterval.
type intervalOut struct {
	dense  *matrix.Dense
	time   float64
	stages int
}

func (a intervalOut) same(b intervalOut) bool {
	return bitIdentical(a.dense, b.dense) && a.time == b.time && a.stages == b.stages
}

// TestDurableInterval: DurableInterval decides which cadence boundaries
// reach the disk and nothing else. 0 writes the files the code always
// wrote, byte for byte; an interval no boundary reaches writes none,
// except at a boundary the run stops at; and result bits, modelled time
// and stage count — of a whole run, of a stopped run and of its Resume —
// are the same whichever boundaries were written.
func TestDurableInterval(t *testing.T) {
	rules := map[DriverKind]semiring.Rule{IM: semiring.NewFloydWarshall(), CB: semiring.NewGaussian()}
	for _, driver := range []DriverKind{IM, CB} {
		rule := rules[driver]
		in := randomInput(rule, 32, rand.New(rand.NewSource(31)))

		// run executes (or, given meta, resumes) under one interval and
		// returns the outcome, the files left and the boundary counters.
		run := func(dir string, interval time.Duration, mut func(*Config), from *CheckpointMeta, tbl *matrix.Blocked) (intervalOut, map[string]string, [2]int64) {
			t.Helper()
			var restore *rdd.EngineState
			if from != nil {
				restore = &from.Engine
			}
			ctx := newDurableCtx(t, durableConf(dir, 0, nil, restore))
			cfg := Config{Rule: rule, BlockSize: 8, Driver: driver, Partitions: 8, DurableDir: dir, DurableInterval: interval}
			if mut != nil {
				mut(&cfg)
			}
			var out *matrix.Blocked
			var st *Stats
			var err error
			if from != nil {
				cfg.CheckpointEvery = from.CheckpointEvery
				out, st, err = Resume(ctx, from, tbl, cfg)
			} else {
				out, st, err = Run(ctx, matrix.Block(in, cfg.BlockSize, rule.Pad(), rule.PadDiag()), cfg)
			}
			if err != nil {
				t.Fatalf("%v interval %v: %v", driver, interval, err)
			}
			reg := ctx.Observer().Metrics()
			count := func(outcome string) int64 {
				return reg.Counter("dpspark_durable_checkpoints_total", map[string]string{"outcome": outcome}).Value()
			}
			return intervalOut{out.ToDense(), st.Time.Seconds(), len(ctx.Events())},
				ckptFiles(t, dir), [2]int64{count("written"), count("deferred")}
		}

		// Interval 0: every boundary, the parent's bytes.
		dense, files, n := run(t.TempDir(), 0, nil, nil, nil)
		if !reflect.DeepEqual(files, intervalParentFiles[driver]) {
			t.Errorf("%v interval 0: checkpoint files %v, want the parent's %v", driver, files, intervalParentFiles[driver])
		}
		if n != [2]int64{4, 0} {
			t.Errorf("%v interval 0: written/deferred = %v, want 4/0", driver, n)
		}
		plain := chaosRun(t, rule, driver, in, nil)
		if !bitIdentical(plain.dense, dense.dense) || plain.stats.Time.Seconds() != dense.time || len(plain.event) != dense.stages {
			t.Errorf("%v interval 0: durable run differs from the plain run", driver)
		}

		// An interval no boundary reaches: no file, the last boundary
		// included, and nothing else moves.
		sparse, files, n := run(t.TempDir(), never, nil, nil, nil)
		if len(files) != 0 || n != [2]int64{0, 4} {
			t.Errorf("%v interval never: files %v, written/deferred %v, want none and 0/4", driver, files, n)
		}
		if !sparse.same(dense) {
			t.Errorf("%v interval never: bits, modelled time or stage count differ from interval 0", driver)
		}

		// A boundary the run stops at is written whatever the interval —
		// by StopAfter on the cadence, by StopRequested off it too.
		stops := map[string]struct {
			mut    func(*Config)
			cursor int
		}{
			"StopAfter": {func(c *Config) { c.StopAfter = 2 }, 2},
			"StopRequested": {func(c *Config) {
				polls := 0
				c.CheckpointEvery = 2
				c.StopRequested = func() bool { polls++; return polls > 2 }
			}, 3},
		}
		for name, stop := range stops {
			denseDir, sparseDir := t.TempDir(), t.TempDir()
			dStop, _, _ := run(denseDir, 0, stop.mut, nil, nil)
			sStop, files, _ := run(sparseDir, never, stop.mut, nil, nil)
			if want := fmt.Sprintf("ckpt-%06d.ck", stop.cursor); len(files) != 1 || files[want] == "" {
				t.Fatalf("%v %s interval never: files %v, want only the stop boundary's %s", driver, name, files, want)
			}
			if !sStop.same(dStop) {
				t.Errorf("%v %s: the stopped run depends on the interval", driver, name)
			}
			// Resume from the sparsely persisted run ≡ resume from the
			// densely persisted one ≡ the uninterrupted bits.
			resume := func(dir string, interval time.Duration) intervalOut {
				meta, tbl, err := LoadCheckpoint(dir)
				if err != nil {
					t.Fatal(err)
				}
				if meta.Iteration != stop.cursor {
					t.Fatalf("%v %s: newest checkpoint cursor %d, want %d", driver, name, meta.Iteration, stop.cursor)
				}
				out, _, _ := run(dir, interval, nil, meta, tbl)
				return out
			}
			dRes, sRes := resume(denseDir, 0), resume(sparseDir, never)
			if !sRes.same(dRes) {
				t.Errorf("%v %s: the resumed run depends on the interval", driver, name)
			}
			if !bitIdentical(sRes.dense, dense.dense) {
				t.Errorf("%v %s: resume from a sparsely persisted run differs from the uninterrupted bits", driver, name)
			}
			if got := ckptFiles(t, sparseDir); len(got) != 1 {
				t.Errorf("%v %s: sparse resume left %v, want the stop boundary's file only", driver, name, got)
			}
		}
	}

	// The interval needs somewhere to write, and a sign.
	rule := rules[IM]
	bl := matrix.Block(randomInput(rule, 16, rand.New(rand.NewSource(1))), 8, rule.Pad(), rule.PadDiag())
	for _, cfg := range []Config{
		{Rule: rule, BlockSize: 8, DurableInterval: -1, DurableDir: t.TempDir()},
		{Rule: rule, BlockSize: 8, DurableInterval: time.Second},
	} {
		if _, _, err := Run(rdd.NewContext(rdd.Conf{Cluster: cluster.LocalN(4, 2)}), bl, cfg); err == nil {
			t.Errorf("DurableInterval %v with DurableDir %q was accepted", cfg.DurableInterval, cfg.DurableDir)
		}
	}
}
