package rdd

import (
	"fmt"
	"strings"
	"testing"
)

// pinEvent renders one chaos-plan event with every field exact (durations
// and factors as their float64 values, not rounded strings).
func pinEvent(t *testing.T, ev FaultEvent) string {
	switch e := ev.(type) {
	case ExecutorCrash:
		return fmt.Sprintf("crash stage=%d node=%d down=%v", e.Stage, e.Node, float64(e.Down))
	case Straggler:
		return fmt.Sprintf("straggler stage=%d part=%d factor=%v", e.Stage, e.Partition, e.Factor)
	case DiskLoss:
		return fmt.Sprintf("disk-loss stage=%d node=%d", e.Stage, e.Node)
	case GCPause:
		return fmt.Sprintf("gc-pause from=%d node=%d dur=%v", e.From, e.Node, float64(e.Dur))
	}
	t.Fatalf("unexpected chaos-plan event %T", ev)
	return ""
}

// TestChaosPlanPinned pins ChaosPlan's exact event list, in order, for the
// argument shapes serve (4 nodes) and `dpspark chaos` (16 nodes)
// use. EngineState.Fired indexes FaultPlan.Events by position, so a serve
// journal or checkpoint written by an older build resumes with the same
// events marked fired only while this list stays put.
func TestChaosPlanPinned(t *testing.T) {
	cases := []struct {
		name                             string
		seed                             int64
		stages, nodes, crashes, gcPauses int
		want                             []string
	}{
		{"serve", 1, 16, 4, 2, 2, []string{
			"crash stage=12 node=3 down=0",
			"crash stage=3 node=3 down=0",
			"straggler stage=2 part=6 factor=2.262548076869905",
			"straggler stage=6 part=0 factor=3.2036474423411483",
			"disk-loss stage=15 node=3",
			"gc-pause from=2 node=2 dur=2.3089281518170646",
			"gc-pause from=6 node=0 dur=7.565929752758683",
		}},
		{"serve gc only", 1, 16, 4, 0, 1, []string{
			"gc-pause from=2 node=2 dur=2.3089281518170646",
		}},
		{"chaos -n 2048 -gcpause 1", 1, 8, 16, 2, 1, []string{
			"crash stage=7 node=15 down=0",
			"crash stage=2 node=11 down=0",
			"straggler stage=7 part=6 factor=2.262548076869905",
			"straggler stage=6 part=8 factor=3.2036474423411483",
			"disk-loss stage=5 node=15",
			"gc-pause from=5 node=10 dur=2.3089281518170646",
		}},
		{"serve", 7, 16, 4, 2, 2, []string{
			"crash stage=12 node=2 down=0",
			"crash stage=4 node=3 down=0",
			"straggler stage=3 part=4 factor=3.41685879231083",
			"straggler stage=8 part=0 factor=4.64627038705045",
			"disk-loss stage=9 node=1",
			"gc-pause from=14 node=0 dur=7.270279113841767",
			"gc-pause from=2 node=0 dur=4.227313703544644",
		}},
		{"serve gc only", 7, 16, 4, 0, 1, []string{
			"gc-pause from=14 node=0 dur=7.270279113841767",
		}},
		{"chaos -n 2048 -gcpause 1", 7, 8, 16, 2, 1, []string{
			"crash stage=7 node=14 down=0",
			"crash stage=3 node=15 down=0",
			"straggler stage=7 part=20 factor=3.41685879231083",
			"straggler stage=4 part=24 factor=4.64627038705045",
			"disk-loss stage=5 node=1",
			"gc-pause from=3 node=12 dur=7.270279113841767",
		}},
		{"serve", 12345, 16, 4, 2, 2, []string{
			"crash stage=9 node=3 down=0",
			"crash stage=5 node=0 down=0",
			"straggler stage=12 part=3 factor=4.455816684030179",
			"straggler stage=7 part=5 factor=4.047327827789279",
			"disk-loss stage=15 node=1",
			"gc-pause from=7 node=3 dur=4.355802429963989",
			"gc-pause from=6 node=1 dur=2.8848977134236025",
		}},
		{"serve gc only", 12345, 16, 4, 0, 1, []string{
			"gc-pause from=7 node=3 dur=4.355802429963989",
		}},
		{"chaos -n 2048 -gcpause 1", 12345, 8, 16, 2, 1, []string{
			"crash stage=4 node=15 down=0",
			"crash stage=5 node=12 down=0",
			"straggler stage=1 part=19 factor=4.455816684030179",
			"straggler stage=4 part=21 factor=4.047327827789279",
			"disk-loss stage=5 node=9",
			"gc-pause from=2 node=11 dur=4.355802429963989",
		}},
	}
	for _, c := range cases {
		p := ChaosPlan(c.seed, c.stages, c.nodes, c.crashes, c.gcPauses)
		var got []string
		for _, ev := range p.Events {
			got = append(got, pinEvent(t, ev))
		}
		if p.Seed != c.seed || strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: seed %d, events\n%s\nwant seed %d, events\n%s", c.name, p.Seed, strings.Join(got, "\n"), c.seed, strings.Join(c.want, "\n"))
		}
	}
}
