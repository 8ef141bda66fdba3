package rdd

import (
	"runtime"
	"strings"
	"testing"

	"dpspark/internal/cluster"
	"dpspark/internal/simtime"
)

// TestConfNormalizationAllKnobs: one table across every Conf knob family
// — cluster, detector, fault plan, durable store, kernels,
// substrate mounting — so every validation lives (and stays) in the
// single normalize site, and NewContext panics with its error.
func TestConfNormalizationAllKnobs(t *testing.T) {
	base := func() Conf { return Conf{Cluster: cluster.LocalN(2, 2)} }
	plan := func(evs ...FaultEvent) func(*Conf) {
		return func(c *Conf) { c.FaultPlan = &FaultPlan{Events: evs} }
	}
	detector := func(evs ...FaultEvent) func(*Conf) {
		return func(c *Conf) { c.HeartbeatInterval = simtime.Second; plan(evs...)(c) }
	}
	cases := []struct {
		name string
		mut  func(*Conf)
		want string // substring of the normalize error
	}{
		// Cluster family.
		{"missing cluster", func(c *Conf) { c.Cluster = nil }, "Conf.Cluster is required"},

		// Detector family.
		{"negative heartbeat", func(c *Conf) { c.HeartbeatInterval = -simtime.Second }, "Conf.HeartbeatInterval must be ≥ 0"},

		// Fault-plan family: a malformed event of every kind, each refused
		// by its own check with the kind and stage named.
		{"fault plan names absent node", plan(ExecutorCrash{Stage: 0, Node: 9}), "ExecutorCrash at stage 0 names node 9 outside the 2-node cluster"},
		{"crash negative stage", plan(ExecutorCrash{Stage: -1}), "negative stage"},
		{"crash negative down", plan(ExecutorCrash{Stage: 1, Down: -simtime.Second}), "negative Down"},
		{"disk loss absent node", plan(DiskLoss{Stage: 1, Node: -1}), "DiskLoss at stage 1 names node -1"},
		{"fault plan straggler below 1", plan(Straggler{Stage: 0, Partition: 0, Factor: 0.5}), "factor 0.5 < 1"},
		{"straggler negative partition", plan(Straggler{Stage: 0, Partition: -1, Factor: 2}), "negative partition"},
		{"corruption negative block", plan(Corruption{Stage: 1, Block: -2}), "rdd.Corruption at stage 1 names negative block"},
		{"gc pause without detector", plan(GCPause{Node: 0, From: 1, Dur: simtime.Second}), "failure detector"},
		{"gc pause zero dur", detector(GCPause{Node: 0, From: 1}), "GCPause at stage 1 has non-positive duration"},
		{"nil event", plan(nil), "event 0 is nil"},

		// Durable-store family.
		{"negative memory budget", func(c *Conf) { c.MemoryBudget = -1 }, "MemoryBudget"},
		{"budget without durable dir", func(c *Conf) { c.MemoryBudget = 64 }, "needs Conf.DurableDir"},

		// Kernel family.
		{"negative kernel threads", func(c *Conf) { c.KernelThreads = -1 }, "KernelThreads"},

		// Substrate family.
		{"priority without substrate", func(c *Conf) { c.Priority = 3 }, "Priority needs Conf.Substrate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conf := base()
			tc.mut(&conf)
			err := conf.normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("normalize = %v, want mention of %q", err, tc.want)
			}
		})
	}

	// NewContext runs the same normalize and panics with its error.
	t.Run("new context panics naming the field", func(t *testing.T) {
		for want, conf := range map[string]Conf{
			"Conf.Cluster is required":           {},
			"Conf.HeartbeatInterval must be ≥ 0": {Cluster: cluster.Local(2), HeartbeatInterval: -simtime.Second},
		} {
			func() {
				defer func() {
					err, ok := recover().(error)
					if !ok || !strings.Contains(err.Error(), want) {
						t.Fatalf("NewContext panic = %v, want an error naming %q", err, want)
					}
				}()
				NewContext(conf)
			}()
		}
	})

	t.Run("substrate conflicts", func(t *testing.T) {
		sub, err := NewSubstrate(SubstrateConf{Cluster: cluster.LocalN(2, 2), KernelThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			mut  func(*Conf)
			want string
		}{
			{"cluster with substrate", func(c *Conf) { c.Cluster = cluster.LocalN(4, 2) }, "Conf.Cluster must be unset"},
			{"kernel threads with substrate", func(c *Conf) { c.KernelThreads = 4 }, "Conf.KernelThreads must be unset"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				conf := Conf{Substrate: sub}
				tc.mut(&conf)
				err := conf.normalize()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("normalize = %v, want mention of %q", err, tc.want)
				}
			})
		}

		// Mounting adopts the substrate's shared fields.
		conf := Conf{Substrate: sub, Priority: 5}
		if err := conf.normalize(); err != nil {
			t.Fatal(err)
		}
		if conf.Cluster != sub.Cluster() || conf.KernelThreads != 2 {
			t.Fatalf("mounted conf did not adopt substrate fields: cluster %v kernelThreads %d", conf.Cluster, conf.KernelThreads)
		}
	})

	t.Run("fault plan of every kind", func(t *testing.T) {
		conf := Conf{Cluster: cluster.LocalN(4, 2)}
		detector(everyKind()...)(&conf)
		if err := conf.normalize(); err != nil {
			t.Fatal(err)
		}
		if conf.FaultPlan.Empty() || !(&FaultPlan{}).Empty() {
			t.Fatal("Empty must mean no events")
		}
	})

	t.Run("defaults", func(t *testing.T) {
		conf := base()
		if err := conf.normalize(); err != nil {
			t.Fatal(err)
		}
		if conf.keepShuffles != 8 {
			t.Fatalf("shuffle window default: keep %d", conf.keepShuffles)
		}
		if conf.KernelThreads != 1 || conf.ExecutorCores != conf.Cluster.Node.Cores {
			t.Fatalf("kernel defaults: threads %d cores %d", conf.KernelThreads, conf.ExecutorCores)
		}
		if conf.Substrate.realPar != runtime.NumCPU() {
			t.Fatalf("engine defaults: %d task slots", conf.Substrate.realPar)
		}
	})

	t.Run("kernel cotune splits cores", func(t *testing.T) {
		conf := Conf{Cluster: cluster.LocalN(2, 8), KernelThreads: 4}
		if err := conf.normalize(); err != nil {
			t.Fatal(err)
		}
		if conf.ExecutorCores != 2 {
			t.Fatalf("ExecutorCores = %d, want 8 cores / 4 threads = 2", conf.ExecutorCores)
		}
	})
}

// everyKind is one well-formed event of each of the five kinds, all due by
// stage 1 of a two-stage job on a 4-node cluster with the detector on —
// and mild enough (sub-lease silences) that the job still completes.
func everyKind() []FaultEvent {
	return []FaultEvent{
		ExecutorCrash{Stage: 1, Node: 0},
		DiskLoss{Stage: 1, Node: 1},
		Straggler{Stage: 0, Partition: 1, Factor: 3},
		Corruption{Stage: 1, Block: 1},
		GCPause{Node: 1, From: 1, Dur: simtime.Second / 2},
	}
}
