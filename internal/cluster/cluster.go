// Package cluster describes the hardware a distributed job runs on: node
// count, cores, clock, cache sizes, memory, local staging disks, shared
// storage and the interconnect. The two presets mirror the paper's
// experimental platforms (§V-B): a 16-node dual-socket Skylake cluster
// with SSDs and a weaker 16-node dual-socket Haswell cluster with
// spinning disks, both on gigabit Ethernet.
//
// The cost model (internal/costmodel) and the task scheduler
// (internal/sim) consume these specs; changing a preset is how the
// portability experiment (Fig. 8) moves a workload between clusters.
package cluster

import "fmt"

// DiskSpec describes a node-local staging disk (where Spark shuffle data
// is written before being served to reducers).
type DiskSpec struct {
	// ReadBW and WriteBW are sustained bandwidths in bytes/second.
	ReadBW, WriteBW float64
	// Capacity is the usable staging capacity in bytes; exceeding it
	// fails the job (the paper notes IM executions are "constrained by
	// the size of the underlying SSDs").
	Capacity int64
}

// NetworkSpec describes the cluster interconnect.
type NetworkSpec struct {
	// BandwidthBps is the per-node link bandwidth in bytes/second.
	BandwidthBps float64
	// LatencySec is the one-way message latency in seconds.
	LatencySec float64
}

// SharedStorageSpec describes the shared persistent filesystem the
// Collect-Broadcast driver stages blocks through.
type SharedStorageSpec struct {
	// ReadBW and WriteBW are aggregate bandwidths in bytes/second.
	ReadBW, WriteBW float64
}

// NodeSpec describes one compute node.
type NodeSpec struct {
	// Cores is the number of physical cores (across sockets).
	Cores int
	// ClockGHz is the nominal core clock.
	ClockGHz float64
	// L2Bytes is the per-core L2 cache size.
	L2Bytes int64
	// L3Bytes is the shared last-level cache size (across sockets).
	L3Bytes int64
	// RAMBytes is the installed memory.
	RAMBytes int64
	// MemBWBps is the sustained DRAM bandwidth in bytes/second.
	MemBWBps float64
	// Disk is the node-local staging disk.
	Disk DiskSpec
}

// Cluster is a homogeneous cluster of Nodes × Node machines.
type Cluster struct {
	// Name labels the cluster in reports.
	Name string
	// Nodes is the number of compute nodes (= executors; the paper runs
	// one executor per node).
	Nodes int
	// Node is the per-node hardware description.
	Node NodeSpec
	// Net is the interconnect.
	Net NetworkSpec
	// Shared is the shared persistent storage used by the CB driver.
	Shared SharedStorageSpec
}

// TotalCores returns the number of physical cores in the cluster.
func (c *Cluster) TotalCores() int { return c.Nodes * c.Node.Cores }

// DefaultPartitions returns the paper's partition-count guideline:
// 2× the total number of cores (§V-B).
func (c *Cluster) DefaultPartitions() int { return 2 * c.TotalCores() }

// String summarizes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("%s: %d nodes × %d cores @%.2fGHz, %dGB RAM",
		c.Name, c.Nodes, c.Node.Cores, c.Node.ClockGHz, c.Node.RAMBytes>>30)
}

// WithNodes returns a copy of the cluster scaled to n nodes (used by the
// weak-scaling experiment, Fig. 9).
func (c *Cluster) WithNodes(n int) *Cluster {
	out := *c
	out.Nodes = n
	out.Name = fmt.Sprintf("%s[%d nodes]", c.Name, n)
	return &out
}

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
	tb = int64(1) << 40
)

// Skylake16 is the paper's primary cluster: 16 nodes, each with two
// 16-core Intel Xeon Gold 6130 (Skylake) 2.10 GHz processors, 1 MB L2 per
// core, 22 MB L3 per socket, 192 GB RAM and a 1 TB SSD.
// Executor/driver memory was set to 160 GB.
//
// Bandwidths are *effective* values calibrated against the paper's
// runtimes: the per-iteration shuffle volumes of the IM driver at the
// reported times imply far more than nominal gigabit Ethernet (shuffle
// compression, fetch/compute overlap, and the testbed — SeaWulf — also
// offers InfiniBand), and local-disk figures fold in the page cache.
// See EXPERIMENTS.md "Calibration".
func Skylake16() *Cluster {
	return &Cluster{
		Name:  "skylake-16",
		Nodes: 16,
		Node: NodeSpec{
			Cores:    32,
			ClockGHz: 2.10,
			L2Bytes:  1 * mb,
			L3Bytes:  2 * 22 * mb,
			RAMBytes: 192 * gb,
			MemBWBps: 100e9,
			Disk: DiskSpec{
				ReadBW:   1.8e9,
				WriteBW:  1.6e9,
				Capacity: 1 * tb,
			},
		},
		Net:    NetworkSpec{BandwidthBps: 1.2e9, LatencySec: 100e-6},
		Shared: SharedStorageSpec{ReadBW: 1.8e9, WriteBW: 1.5e9},
	}
}

// Haswell16 is the paper's portability cluster (Fig. 8): 16 nodes, each
// with dual 10-core Intel Xeon E5-2650v3 (Haswell) 2.30 GHz processors,
// 256 KB L2 per core, 25 MB L3 per socket, 64 GB RAM and a 7500 rpm SATA
// spinning disk. Executor/driver memory 60 GB. Bandwidths are effective
// values (see Skylake16); the spinning disks are the dominant handicap.
func Haswell16() *Cluster {
	return &Cluster{
		Name:  "haswell-16",
		Nodes: 16,
		Node: NodeSpec{
			Cores:    20,
			ClockGHz: 2.30,
			L2Bytes:  256 * kb,
			L3Bytes:  2 * 25 * mb,
			RAMBytes: 64 * gb,
			MemBWBps: 60e9,
			Disk: DiskSpec{
				ReadBW:   110e6,
				WriteBW:  100e6,
				Capacity: 1 * tb,
			},
		},
		Net:    NetworkSpec{BandwidthBps: 1.0e9, LatencySec: 120e-6},
		Shared: SharedStorageSpec{ReadBW: 1.5e9, WriteBW: 1.2e9},
	}
}

// LocalN returns a small multi-node development "cluster": Local's
// per-node hardware replicated across nodes. Fault-injection tests use
// it — executor loss, blacklisting and shuffle re-fetch need more than
// one executor to be observable.
func LocalN(nodes, cores int) *Cluster {
	if nodes < 1 {
		nodes = 1
	}
	c := Local(cores)
	c.Nodes = nodes
	c.Name = fmt.Sprintf("local-%d", nodes)
	return c
}

// Local returns a tiny single-node "cluster" used by tests and real-mode
// runs on a development machine.
func Local(cores int) *Cluster {
	if cores < 1 {
		cores = 1
	}
	return &Cluster{
		Name:  "local",
		Nodes: 1,
		Node: NodeSpec{
			Cores:    cores,
			ClockGHz: 2.5,
			L2Bytes:  1 * mb,
			L3Bytes:  16 * mb,
			RAMBytes: 16 * gb,
			MemBWBps: 50e9,
			Disk:     DiskSpec{ReadBW: 1e9, WriteBW: 1e9, Capacity: 100 * gb},
		},
		Net:    NetworkSpec{BandwidthBps: 10e9, LatencySec: 5e-6},
		Shared: SharedStorageSpec{ReadBW: 1e9, WriteBW: 1e9},
	}
}
