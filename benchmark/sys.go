package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

// Process accounting and machine facts. Linux only: the harness reads
// rusage, /proc/cpuinfo and statfs.

// selfUsage returns this process's user+system CPU seconds and its
// maximum resident set in MB.
func selfUsage() (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return rusageCPU(&ru), float64(ru.Maxrss) / 1024
}

// childUsage returns a finished child's CPU seconds and maximum RSS.
func childUsage(ps *os.ProcessState) (cpuS, maxRSSMB float64) {
	if ps == nil {
		return 0, 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime().Seconds() + ps.SystemTime().Seconds(), 0
	}
	return rusageCPU(ru), float64(ru.Maxrss) / 1024
}

func rusageCPU(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// goSnap is a snapshot of the Go runtime's allocation and GC counters.
type goSnap struct {
	ms           runtime.MemStats
	gcCPU, total float64
}

var goCPUSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapGo() goSnap {
	var s goSnap
	runtime.ReadMemStats(&s.ms)
	metrics.Read(goCPUSamples)
	if goCPUSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = goCPUSamples[0].Value.Float64()
		s.total = goCPUSamples[1].Value.Float64()
	}
	return s
}

// goLayer renders the go.* metrics for the phase between two snapshots.
func goLayer(m map[string]float64, from, to goSnap, ops int) {
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	m["go.allocs_per_op"] = float64(to.ms.Mallocs-from.ms.Mallocs) / n
	m["go.alloc_mb_per_op"] = float64(to.ms.TotalAlloc-from.ms.TotalAlloc) / 1e6 / n
	m["go.gc_cycles_per_op"] = float64(to.ms.NumGC-from.ms.NumGC) / n
	m["go.gc_pause_ms_total"] = float64(to.ms.PauseTotalNs-from.ms.PauseTotalNs) / 1e6
	if dt := to.total - from.total; dt > 0 {
		m["go.gc_cpu_frac"] = (to.gcCPU - from.gcCPU) / dt
	}
	// HeapSys only grows: at the end of the phase it is the most heap the
	// process ever held mapped.
	m["go.heap_peak_mb"] = float64(to.ms.HeapSys) / 1e6
}

// machineFacts records what the numbers were measured on.
func machineFacts(dir string, procs int) map[string]any {
	facts := map[string]any{
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       procs,
		"real_parallelism": runtime.NumCPU(), // rdd.Conf default, what Session uses
		"cluster":          fmt.Sprintf("Local(%d)", procs),
		"go_version":       runtime.Version(),
		"goos_goarch":      runtime.GOOS + "/" + runtime.GOARCH,
		"dir_filesystem":   fsType(dir),
	}
	return facts
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
