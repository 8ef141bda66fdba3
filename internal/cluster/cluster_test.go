package cluster

import (
	"strings"
	"testing"
)

func TestPresets(t *testing.T) {
	sky := Skylake16()
	if sky.Nodes != 16 || sky.Node.Cores != 32 {
		t.Fatalf("skylake shape: %d nodes × %d cores", sky.Nodes, sky.Node.Cores)
	}
	if sky.TotalCores() != 512 {
		t.Fatalf("skylake cores = %d", sky.TotalCores())
	}
	if sky.DefaultPartitions() != 1024 { // paper §V-B: 2× total cores
		t.Fatalf("skylake partitions = %d", sky.DefaultPartitions())
	}

	has := Haswell16()
	if has.TotalCores() != 320 {
		t.Fatalf("haswell cores = %d", has.TotalCores())
	}
	if has.DefaultPartitions() != 640 { // paper: 2×16×20 = 640
		t.Fatalf("haswell partitions = %d", has.DefaultPartitions())
	}
	// The portability cluster is strictly weaker where it matters.
	if !(has.Node.L2Bytes < sky.Node.L2Bytes) {
		t.Fatal("haswell L2 must be smaller than skylake L2")
	}
	if !(has.Node.Disk.WriteBW < sky.Node.Disk.WriteBW) {
		t.Fatal("haswell spinning disk must be slower than skylake SSD")
	}
}

func TestWithNodes(t *testing.T) {
	c := Skylake16().WithNodes(64)
	if c.Nodes != 64 || c.TotalCores() != 64*32 {
		t.Fatalf("WithNodes: %d nodes", c.Nodes)
	}
	if Skylake16().Nodes != 16 {
		t.Fatal("WithNodes must not mutate the receiver")
	}
	if !strings.Contains(c.Name, "64") {
		t.Fatalf("name = %q", c.Name)
	}
}

func TestLocal(t *testing.T) {
	c := Local(0)
	if c.Node.Cores != 1 {
		t.Fatal("Local clamps cores to 1")
	}
	if Local(8).TotalCores() != 8 {
		t.Fatal("Local cores")
	}
}

func TestWithRacks(t *testing.T) {
	c := Skylake16().WithRacks(4)
	if c.Racks != 4 {
		t.Fatalf("Racks = %d", c.Racks)
	}
	if Skylake16().Racks != 0 {
		t.Fatal("WithRacks must not mutate the receiver")
	}
	// Contiguous blocks of 4: every node maps into range, every rack's
	// member list round-trips through RackOf.
	seen := 0
	for r := 0; r < c.Racks; r++ {
		members := c.RackNodes(r)
		if len(members) != 4 {
			t.Fatalf("rack %d has %d members", r, len(members))
		}
		for _, n := range members {
			if c.RackOf(n) != r {
				t.Fatalf("RackOf(%d) = %d, want %d", n, c.RackOf(n), r)
			}
			seen++
		}
	}
	if seen != c.Nodes {
		t.Fatalf("racks cover %d of %d nodes", seen, c.Nodes)
	}
	// Uneven split: 16 nodes over 3 racks = ceil blocks of 6, last rack short.
	u := Skylake16().WithRacks(3)
	if got := len(u.RackNodes(2)); got != 4 {
		t.Fatalf("last uneven rack has %d members, want 4", got)
	}
	if u.RackOf(15) != 2 || u.RackOf(0) != 0 {
		t.Fatalf("uneven mapping: RackOf(15)=%d RackOf(0)=%d", u.RackOf(15), u.RackOf(0))
	}
	// Without topology everything is one implicit domain.
	if Skylake16().RackOf(7) != 0 {
		t.Fatal("rackless cluster must map every node to domain 0")
	}
}

func TestString(t *testing.T) {
	s := Skylake16().String()
	if !strings.Contains(s, "skylake-16") || !strings.Contains(s, "192GB") {
		t.Fatalf("String = %q", s)
	}
}
