package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/matrix"
	"dpspark/internal/rdd"
	"dpspark/internal/semiring"
	"dpspark/internal/simtime"
)

// The record-path golden table. The engine has one record path, so there
// is no second implementation to diff a refactor of it against; this
// table is the diff. It was captured on the commit before the typed
// record path landed (PR 16) and pins, for runs that together cross every
// shuffle/narrow/collect/broadcast/durable seam, everything that must be
// a pure function of the job spec: result bits, the modelled clock, the
// traffic counters, the stage/task structure, the recovery trajectory and
// the bytes the durable path puts on disk. The recovery rows at its end
// (recoveryRows) carry the modelled-seconds results of the recovery
// experiments in EXPERIMENTS.md.
//
// Regenerate (only when a change is MEANT to move one of these) with
//
//	go test ./internal/core -run TestRecordPathGolden -update-recordpath

var updateRecordPath = flag.Bool("update-recordpath", false, "rewrite testdata/recordpath_golden.json")

const recordPathGoldenFile = "testdata/recordpath_golden.json"

// goldenRow is one run's spec-determined outcome.
type goldenRow struct {
	Name string `json:"name"`
	// Checksum is FNV-1a over the result's float64 bit patterns ("" for
	// symbolic runs, which produce no table).
	Checksum string `json:"checksum"`
	// TimeBits is math.Float64bits(Stats.Time) — the modelled clock must
	// repeat to the last bit; Time is the same value, readable.
	TimeBits       string            `json:"time_bits"`
	Time           float64           `json:"time_s"`
	ShuffleBytes   int64             `json:"shuffle_bytes"`
	BroadcastBytes int64             `json:"broadcast_bytes"`
	Stages         int               `json:"stages"`
	Tasks          int               `json:"tasks"`
	Recovery       rdd.RecoveryStats `json:"recovery"`
	// RecoveryS and DetectionS are Stats.RecoveryTime and DetectionTime:
	// the modelled seconds spent in resubmitted stages and waiting for the
	// failure detector (recovery rows only — RecoveryStats counts events,
	// it does not price them).
	RecoveryS  float64 `json:"recovery_s,omitempty"`
	DetectionS float64 `json:"detection_s,omitempty"`
	// Files maps every staged block key (live at the end of the run) and
	// every checkpoint file name to "<bytes>:<fnv>" — durable runs only.
	Files map[string]string `json:"files,omitempty"`
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func denseChecksum(d *matrix.Dense) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range d.Data {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenRowOf(name string, ctx *rdd.Context, out *matrix.Blocked, st *Stats) goldenRow {
	row := goldenRow{
		Name:           name,
		TimeBits:       fmt.Sprintf("%016x", math.Float64bits(st.Time.Seconds())),
		Time:           st.Time.Seconds(),
		ShuffleBytes:   st.ShuffleBytes,
		BroadcastBytes: st.BroadcastBytes,
		Recovery:       ctx.RecoveryStats(),
	}
	if out != nil {
		row.Checksum = denseChecksum(out.ToDense())
	}
	for _, ev := range ctx.Events() {
		row.Stages++
		row.Tasks += ev.Tasks
	}
	return row
}

// recordPathRows executes the table's runs.
func recordPathRows(t *testing.T) []goldenRow {
	t.Helper()
	var rows []goldenRow
	rules := []semiring.Rule{semiring.NewFloydWarshall(), semiring.NewGaussian()}
	const n, b, parts = 64, 8, 8

	// {IM, CB} × {FW, GE} × {hash, grid}, fault-free.
	for _, rule := range rules {
		in := randomInput(rule, n, rand.New(rand.NewSource(16)))
		for _, driver := range []DriverKind{IM, CB} {
			for _, pname := range []string{"hash", "grid"} {
				var part rdd.Partitioner = rdd.NewHashPartitioner(parts)
				if pname == "grid" {
					part = rdd.NewGridPartitioner(parts, n/b)
				}
				ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.LocalN(4, 2)})
				cfg := Config{Rule: rule, BlockSize: b, Driver: driver, Partitions: parts, Partitioner: part}
				bl := matrix.Block(in, b, rule.Pad(), rule.PadDiag())
				out, st, err := Run(ctx, bl, cfg)
				if err != nil {
					t.Fatalf("%s %v %s: %v", rule.Name(), driver, pname, err)
				}
				rows = append(rows, goldenRowOf(fmt.Sprintf("%s/%v/%s", rule.Name(), driver, pname), ctx, out, st))
			}
		}
	}

	fw := rules[0]
	in := randomInput(fw, n, rand.New(rand.NewSource(16)))

	// One seeded fault plan: crash, disk loss, straggler, speculation.
	// One real worker, so the recovery counters do not depend on how
	// concurrent reduce tasks interleave (ROADMAP item 1).
	{
		ctx := rdd.NewContext(rdd.Conf{
			Substrate:   slots(t, cluster.LocalN(4, 2), 1),
			FaultPlan:   rdd.RandomFaultPlan(16, 30, 4, 2, 2, 1),
			Speculation: true,
		})
		cfg := Config{Rule: fw, BlockSize: b, Driver: IM, Partitions: parts}
		out, st, err := Run(ctx, matrix.Block(in, b, fw.Pad(), fw.PadDiag()), cfg)
		if err != nil {
			t.Fatalf("faulted run: %v", err)
		}
		rows = append(rows, goldenRowOf("faultplan-seed16/IM", ctx, out, st))
	}

	// One durable run under memory pressure: staged block keys + bytes
	// and the checkpoint files.
	{
		dir := t.TempDir()
		ctx := newDurableCtx(t, durableConf(dir, 16<<10, nil, nil))
		cfg := Config{Rule: fw, BlockSize: b, Driver: IM, Partitions: parts, DurableDir: dir}
		out, st, err := Run(ctx, matrix.Block(in, b, fw.Pad(), fw.PadDiag()), cfg)
		if err != nil {
			t.Fatalf("durable run: %v", err)
		}
		row := goldenRowOf("durable-16KiB/IM", ctx, out, st)
		row.Files = make(map[string]string)
		keys := ctx.Store().Keys("")
		sort.Strings(keys)
		for _, k := range keys {
			blob, err := ctx.Store().Get(k)
			if err != nil {
				t.Fatalf("staged block %s: %v", k, err)
			}
			row.Files[k] = fmt.Sprintf("%d:%s", len(blob), fnvHex(blob))
		}
		cks, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
		if err != nil || len(cks) == 0 {
			t.Fatalf("no checkpoint files under %s (%v)", dir, err)
		}
		for _, p := range cks {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			row.Files[filepath.Base(p)] = fmt.Sprintf("%d:%s", len(raw), fnvHex(raw))
		}
		rows = append(rows, row)
	}

	// One symbolic Table I cell: the paper-scale path shares every line of
	// the record path but carries payload-free tiles.
	{
		ctx := rdd.NewContext(rdd.Conf{Cluster: cluster.Skylake16()})
		cfg := Config{Rule: fw, BlockSize: 512, Driver: IM, RecursiveKernel: true, RShared: 4, Threads: 8}
		_, st, err := Run(ctx, matrix.NewSymbolicBlocked(8192, 512), cfg)
		if err != nil {
			t.Fatalf("symbolic cell: %v", err)
		}
		rows = append(rows, goldenRowOf("tableI/fw/IM/n8192/b512/rec4x8", ctx, nil, st))
	}
	return append(rows, recoveryRows(t)...)
}

// recoverySeed fixes the recovery rows' random fault plans.
const recoverySeed = 20260805

// recoveryRows is the robustness trajectory, priced on the modelled clock:
//   - per driver, a symbolic FW run (n=8192, b=1024, r=8 → 32 planned
//     stages) clean and under a seeded plan of c executor crashes plus 2
//     stragglers and 1 staging-disk loss, speculation on;
//   - the c=2 plan under heartbeat leases of 0 (instant detection), 1, 2
//     and 5 s, each declaration delayed by misses × interval;
//   - heavy stragglers on update stages, speculation off vs on (32
//     partitions over a 16×16 grid keep every partition populated).
func recoveryRows(t *testing.T) []goldenRow {
	t.Helper()
	var rows []goldenRow
	fw := semiring.NewFloydWarshall()
	// run adds one row from a fresh Context: FW over the symbolic n=8192
	// grid, or for real over in when it is non-nil.
	run := func(name string, conf rdd.Conf, in *matrix.Dense, cfg Config) {
		ctx := rdd.NewContext(conf)
		defer ctx.Close()
		cfg.Rule = fw
		var bl *matrix.Blocked
		if in == nil {
			bl = matrix.NewSymbolicBlocked(8192, cfg.BlockSize)
		} else {
			bl = matrix.Block(in, cfg.BlockSize, fw.Pad(), fw.PadDiag())
		}
		out, st, err := Run(ctx, bl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if in == nil {
			out = nil // payload-free tiles: no result to checksum
		}
		row := goldenRowOf(name, ctx, out, st)
		row.RecoveryS, row.DetectionS = st.RecoveryTime.Seconds(), st.DetectionTime.Seconds()
		rows = append(rows, row)
	}

	const stages, blk = 32, 1024
	nodes := cluster.Skylake16().Nodes
	for _, driver := range []DriverKind{IM, CB} {
		for _, crashes := range []int{0, 1, 2, 4} {
			conf := rdd.Conf{Cluster: cluster.Skylake16(), Speculation: true}
			if crashes > 0 {
				conf.FaultPlan = rdd.RandomFaultPlan(recoverySeed, stages, nodes, crashes, 2, 1)
			}
			run(fmt.Sprintf("recovery/%v/crashes%d", driver, crashes), conf, nil, Config{BlockSize: blk, Driver: driver})
		}
	}
	for _, interval := range []int{0, 1, 2, 5} {
		conf := rdd.Conf{
			Cluster:           cluster.Skylake16(),
			Speculation:       true,
			FaultPlan:         rdd.RandomFaultPlan(recoverySeed, stages, nodes, 2, 2, 1),
			HeartbeatInterval: simtime.Duration(interval) * simtime.Second,
		}
		run(fmt.Sprintf("detection/interval%ds", interval), conf, nil, Config{BlockSize: blk, Driver: IM})
	}
	for i, speculation := range []string{"off", "on"} {
		conf := rdd.Conf{
			Cluster:     cluster.Skylake16(),
			Speculation: i == 1,
			FaultPlan: &rdd.FaultPlan{Events: []rdd.FaultEvent{
				rdd.Straggler{Stage: 2, Partition: 3, Factor: 6},
				rdd.Straggler{Stage: 6, Partition: 9, Factor: 6},
			}},
		}
		run("speculation/"+speculation, conf, nil, Config{BlockSize: 512, Driver: IM, Partitions: 32})
	}

	return rows
}

func TestRecordPathGolden(t *testing.T) {
	got := recordPathRows(t)
	if *updateRecordPath {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(recordPathGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", recordPathGoldenFile, len(got))
		return
	}
	raw, err := os.ReadFile(recordPathGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			t.Errorf("row %s moved:\n got  %s\n want %s", want[i].Name, g, w)
		}
	}
}
