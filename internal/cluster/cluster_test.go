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

func TestString(t *testing.T) {
	s := Skylake16().String()
	if !strings.Contains(s, "skylake-16") || !strings.Contains(s, "192GB") {
		t.Fatalf("String = %q", s)
	}
}
