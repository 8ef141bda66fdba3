package rdd

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/simtime"
)

// Durable-staging tests: shuffle buckets routed through the block store
// must read back identically (memory- or disk-resident), seeded
// corruption must flow into the FetchFailed → partial-recompute path,
// and the new Conf knobs must be validated in normalize.

// intPairCodec serializes Pair[int, int] records as two u64s — the
// engine-level stand-in for core's tile codec (rdd cannot import core).
type intPairCodec struct{}

func (intPairCodec) EncodedLen(rec Record) (int, bool) {
	_, ok := rec.(Pair[int, int])
	return 16, ok
}

func (intPairCodec) Append(dst []byte, rec Record) ([]byte, bool) {
	p, ok := rec.(Pair[int, int])
	if !ok {
		return dst, false
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Key))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Value))
	return dst, true
}

func (intPairCodec) Decode(b []byte) (Record, []byte, error) {
	if len(b) < 16 {
		return nil, nil, fmt.Errorf("intPairCodec: %d bytes left, want 16", len(b))
	}
	return KV(int(binary.LittleEndian.Uint64(b)), int(binary.LittleEndian.Uint64(b[8:]))), b[16:], nil
}

// durableConf is a 2×2 cluster Conf with the block store enabled.
func durableConf(t *testing.T, budget int64) Conf {
	t.Helper()
	return Conf{
		Cluster:      cluster.LocalN(2, 2),
		DurableDir:   t.TempDir(),
		MemoryBudget: budget,
		SpillCodec:   intPairCodec{},
	}
}

// newContext is NewContext plus a Close when the test ends — registered
// after durableConf's TempDir, so the store's background writers are
// stopped before the directory is removed.
func newContext(t *testing.T, conf Conf) *Context {
	t.Helper()
	ctx := NewContext(conf)
	t.Cleanup(ctx.Close)
	return ctx
}

// TestShuffleDurableStaging: with a store configured, non-combining
// shuffle buckets are staged as blocks and the job's results are
// unchanged; retiring the shuffle cleans its blocks up.
func TestShuffleDurableStaging(t *testing.T) {
	ctx := newContext(t, durableConf(t, 0))
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if len(got) != 20 || got[7] != 14 {
		t.Fatalf("collect = %v", got)
	}
	keys := ctx.Store().Keys(shufflePrefix(0))
	if len(keys) == 0 {
		t.Fatal("no blocks staged for shuffle 0")
	}
	// Push KeepShuffles more shuffles through so shuffle 0 retires.
	for i := 0; i < ctx.KeepShuffles(); i++ {
		collectPairs(t, shuffledDoubles(ctx, 2))
	}
	if keys := ctx.Store().Keys(shufflePrefix(0)); len(keys) != 0 {
		t.Fatalf("retired shuffle left blocks: %v", keys)
	}
}

// TestShuffleEvictionBitIdentical: a tiny MemoryBudget forces blocks to
// disk mid-run; results must equal the unbounded run's and the eviction
// counters must show the pressure was real.
func TestShuffleEvictionBitIdentical(t *testing.T) {
	free := newContext(t, durableConf(t, 0))
	want := collectPairs(t, shuffledDoubles(free, 4))

	tight := newContext(t, durableConf(t, 64)) // a handful of pairs per block
	got := collectPairs(t, shuffledDoubles(tight, 4))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("eviction changed results: %v vs %v", got, want)
	}
	st := tight.StoreStats()
	if st.Evicted == 0 || st.Spilled == 0 {
		t.Fatalf("no eviction under a 64-byte budget: %+v", st)
	}
	if free.StoreStats().Evicted != 0 {
		t.Fatalf("unbounded run evicted: %+v", free.StoreStats())
	}
}

// TestCorruptionRecoversViaRecompute: a seeded corruption event damages
// a staged block; the reduce-side read must fail its checksum, indict
// the map partition, and recover through the PR 3 resubmission path —
// with the right counters on both the store and the recovery side.
func TestCorruptionRecoversViaRecompute(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			conf := durableConf(t, 0)
			// Stage 0 stages the map outputs; the corruption fires as the
			// collecting stage 1 starts, so the damaged block is read (and
			// repaired) within that very stage.
			conf.FaultPlan = &FaultPlan{Events: []FaultEvent{Corruption{Stage: 1, Block: 2, Torn: torn}}}
			ctx := newContext(t, conf)
			got := collectPairs(t, shuffledDoubles(ctx, 4))
			if len(got) != 20 || got[7] != 14 {
				t.Fatalf("collect = %v", got)
			}
			rs := ctx.RecoveryStats()
			if rs.Corruptions != 1 {
				t.Fatalf("corruptions = %d, want 1: %+v", rs.Corruptions, rs)
			}
			if rs.FetchFailures == 0 || rs.StageResubmits == 0 || rs.RecomputedMapPartitions == 0 {
				t.Fatalf("corruption must recover through resubmission: %+v", rs)
			}
			reg := ctx.Observer().Metrics()
			if n := reg.CounterTotal("dpspark_corrupt_blocks_detected_total"); n == 0 {
				t.Fatal("store detected no corruption")
			}
			if n := reg.CounterTotal("dpspark_fault_injections_total"); n != 1 {
				t.Fatalf("fault injections = %d, want 1", n)
			}
			// The recompute overwrote the damaged block: every staged block
			// verifies now.
			for _, key := range ctx.Store().Keys("shuffle/") {
				if _, err := ctx.Store().Get(key); err != nil {
					t.Fatalf("block %q still damaged after recovery: %v", key, err)
				}
			}
		})
	}
}

// TestCorruptionPlusCrashSameRun: corruption and an executor crash in
// one run still recover to the exact fault-free result (the chaos-suite
// combination at engine level).
func TestCorruptionPlusCrashSameRun(t *testing.T) {
	clean := NewContext(Conf{Cluster: cluster.LocalN(2, 2)})
	want := collectPairs(t, shuffledDoubles(clean, 4))

	conf := durableConf(t, 0)
	conf.FaultPlan = &FaultPlan{Events: []FaultEvent{
		ExecutorCrash{Stage: 1, Node: 0},
		Corruption{Stage: 1, Block: 1},
	}}
	ctx := newContext(t, conf)
	got := collectPairs(t, shuffledDoubles(ctx, 4))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corruption+crash changed results: %v vs %v", got, want)
	}
	rs := ctx.RecoveryStats()
	if rs.Corruptions != 1 || rs.ExecutorCrashes != 1 {
		t.Fatalf("both events must fire: %+v", rs)
	}
}

// TestBroadcastDurableSelfHeal: a broadcast's durable copy that fails
// verification is re-written from the driver-held items on the next
// first-per-(node,stage) fetch.
func TestBroadcastDurableSelfHeal(t *testing.T) {
	ctx := newContext(t, durableConf(t, 0))
	bc := NewBroadcast(ctx, []Pair[int, int]{KV(1, 10), KV(2, 20)})
	if !ctx.Store().Has("bc/0") {
		t.Fatal("broadcast not staged durably")
	}
	if !ctx.Store().Corrupt("bc/0", false) {
		t.Fatal("could not damage broadcast block")
	}
	items := bc.Get(&TaskContext{StageID: 3, Node: 1, ctx: ctx})
	if len(items) != 2 || items[1].Value != 20 {
		t.Fatalf("Get after corruption = %v", items)
	}
	if _, err := ctx.Store().Get("bc/0"); err != nil {
		t.Fatalf("broadcast block not self-healed: %v", err)
	}
	if n := ctx.Observer().Metrics().CounterTotal("dpspark_corrupt_blocks_detected_total"); n != 1 {
		t.Fatalf("corrupt detections = %d, want 1", n)
	}
}

// TestConfNormalizeStoreKnobs: the new knobs are validated in the same
// single normalize site as PR 3's.
func TestConfNormalizeStoreKnobs(t *testing.T) {
	base := func() Conf { return Conf{Cluster: cluster.LocalN(2, 2)} }
	cases := []struct {
		name string
		mut  func(*Conf)
		want string
	}{
		{"negative budget", func(c *Conf) { c.MemoryBudget = -1 }, "MemoryBudget"},
		{"budget without dir", func(c *Conf) { c.MemoryBudget = 1 << 20 }, "DurableDir"},
		{"restore negative cursor", func(c *Conf) { c.Restore = &EngineState{NextStage: -1} }, "Restore"},
		{"restore plan mismatch", func(c *Conf) {
			c.FaultPlan = &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 1, Node: 0}}}
			c.Restore = &EngineState{Fired: []bool{true, false}}
		}, "Fired"},
		{"restore strikes mismatch", func(c *Conf) {
			c.Restore = &EngineState{Strikes: []int{0, 0, 0}}
		}, "Strikes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conf := base()
			tc.mut(&conf)
			err := conf.normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("normalize = %v, want mention of %s", err, tc.want)
			}
		})
	}

	t.Run("uncreatable durable dir", func(t *testing.T) {
		occupied := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		conf := base()
		conf.DurableDir = filepath.Join(occupied, "sub")
		if err := conf.normalize(); err == nil || !strings.Contains(err.Error(), "DurableDir") {
			t.Fatalf("normalize = %v, want DurableDir error", err)
		}
	})

	t.Run("valid durable conf", func(t *testing.T) {
		conf := base()
		conf.DurableDir = t.TempDir()
		conf.MemoryBudget = 1 << 20
		if err := conf.normalize(); err != nil {
			t.Fatalf("normalize: %v", err)
		}
	})
}

// TestEngineStateResume: a snapshot taken mid-run seeds a fresh context
// that continues the stage/shuffle numbering and does not re-fire
// already-fired plan events.
func TestEngineStateResume(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{ExecutorCrash{Stage: 1, Node: 0}}}
	ctx := NewContext(Conf{Cluster: cluster.LocalN(2, 2), FaultPlan: plan})
	collectPairs(t, shuffledDoubles(ctx, 4))
	es := ctx.EngineState()
	if es.NextStage < 2 || es.NextShuffle != 1 {
		t.Fatalf("snapshot = %+v", es)
	}
	if len(es.Fired) != 1 || !es.Fired[0] {
		t.Fatalf("crash not marked fired: %+v", es)
	}
	if es.Strikes[0] != 1 {
		t.Fatalf("strikes = %v, want node 0 at 1", es.Strikes)
	}

	resumed := NewContext(Conf{Cluster: cluster.LocalN(2, 2), FaultPlan: plan, Restore: &es})
	got := collectPairs(t, shuffledDoubles(resumed, 4))
	if len(got) != 20 {
		t.Fatalf("resumed collect = %v", got)
	}
	if rs := resumed.RecoveryStats(); rs.ExecutorCrashes != 0 {
		t.Fatalf("restored context re-fired the crash: %+v", rs)
	}
	// Stage numbering continued: the resumed run's first stage is the
	// snapshot's cursor.
	if first := resumed.Events()[0].StageID; first != es.NextStage {
		t.Fatalf("resumed first stage = %d, want %d", first, es.NextStage)
	}
}

// TestWithRandomCorruptionsDeterministic: the seeded corruption schedule
// is reproducible and validates.
func TestWithRandomCorruptionsDeterministic(t *testing.T) {
	base := RandomFaultPlan(42, 12, 4, 1, 1, 1)
	a := base.WithRandomCorruptions(99, 12, 3)
	b := base.WithRandomCorruptions(99, 12, 3)
	drawn := func(p *FaultPlan) []FaultEvent { return p.Events[len(base.Events):] }
	if !reflect.DeepEqual(drawn(a), drawn(b)) {
		t.Fatalf("same seed, different corruption schedule: %+v vs %+v", drawn(a), drawn(b))
	}
	if CountEvents[Corruption](a) != 3 || CountEvents[Corruption](base) != 0 {
		t.Fatalf("append went wrong: %+v / %+v", a.Events, base.Events)
	}
	if err := a.validate(4, false); err != nil {
		t.Fatalf("validate: %v", err)
	}
	c := base.WithRandomCorruptions(100, 12, 3)
	if reflect.DeepEqual(drawn(a), drawn(c)) {
		t.Fatal("different seeds must differ")
	}
}

// TestEngineStateRoundTrip: a plan holding every kind fires in full, each
// event's bit rides the snapshot (one array, through JSON), and a context
// restored from it replays the same stage IDs without re-firing — or
// re-counting — any of them. A Restore vector of another plan's length is
// refused.
func TestEngineStateRoundTrip(t *testing.T) {
	plan := &FaultPlan{Events: everyKind()}
	// counted[i] is the ledger row that counts plan.Events[i] firing.
	counted := []recKind{recExecCrashes, recDiskLosses, recStragglers, recCorruptions, recGCPauses, recPartitions}
	conf := func(restore *EngineState) Conf {
		c := durableConf(t, 0)
		c.Cluster = cluster.LocalN(4, 2)
		c.HeartbeatInterval = simtime.Second
		c.FaultPlan, c.Restore = plan, restore
		return c
	}
	ctx := newContext(t, conf(nil))
	want := collectPairs(t, shuffledDoubles(ctx, 4))
	es := ctx.EngineState()
	for i, ev := range plan.Events {
		if n := ctx.ledger.n[counted[i]].Load(); !es.Fired[i] || n != 1 {
			t.Errorf("%T: fired %v, counted %d; want fired once", ev, es.Fired[i], n)
		}
	}
	raw, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	var back EngineState
	if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back, es) {
		t.Fatalf("JSON round trip: %v\n%s\n-> %+v, want %+v", err, raw, back, es)
	}

	// Rewind the cursors so the restored context meets every event's stage
	// again: only the fired bits keep them from firing twice.
	back.NextStage, back.NextShuffle = 0, 0
	resumed := newContext(t, conf(&back))
	if got := collectPairs(t, shuffledDoubles(resumed, 4)); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run = %v, want %v", got, want)
	}
	for i, ev := range plan.Events {
		if n := resumed.ledger.n[counted[i]].Load(); n != 0 {
			t.Errorf("%T fired again on the restored context (counted %d)", ev, n)
		}
	}

	bad := conf(&EngineState{Fired: []bool{true, false}})
	if err := bad.normalize(); err == nil || !strings.Contains(err.Error(), "Restore.Fired") {
		t.Fatalf("normalize = %v, want a Restore.Fired length mismatch", err)
	}
}
